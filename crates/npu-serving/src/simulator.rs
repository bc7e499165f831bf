//! The serving simulator: arrival trace → batch formation → request-graph
//! lowering → release-time scheduling on the event timeline.
//!
//! Each formed batch is lowered through
//! [`Workload::build_request_graph`] (independent per-request
//! subgraphs merged by a batch collective), the batches are concatenated
//! into one operator graph with every anchor of a batch *released* at the
//! batch's dispatch cycle, and the whole trace is scheduled by the
//! unmodified timeline engine. Queueing delay and inter-request gaps
//! therefore show up as ordinary idle intervals on every resource track — the
//! interval-walking gating model in `regate::Evaluator` prices them with
//! no serving-specific special-casing, which is exactly the paper's §3
//! point that out-of-duty-cycle idleness is gateable energy.
//!
//! At saturating load (every request at cycle 0, one full batch) the
//! serving schedule reproduces the classic cycle-0 batch run bit for bit:
//! zero releases are the engine's identity.

// The batch-template cache is lookup-only (never iterated), so hash order
// cannot leak into any simulated number.
use std::collections::{HashMap, VecDeque}; // lint:allow(hash-iter)
use std::sync::{Arc, Mutex, MutexGuard};

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration, ParallelismConfig};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{OperatorGraph, Workload};
use npu_sim::analysis::{self, rules, AnalysisReport, Diagnostic, OpSpan, Severity};
use npu_sim::{
    AnchorProfile, EngineScratch, PreparedSimulator, SimulationResult, Simulator, TraceRecorder,
};
use serde::{Deserialize, Serialize};

use crate::batch::{BatchPolicy, FormedBatch};

/// One request's observed serving lifecycle, in cycles on the trace clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// When the request arrived.
    pub arrival_cycle: u64,
    /// When its batch closed and was handed to the scheduler.
    pub dispatch_cycle: u64,
    /// When its batch's last operator (the merge) finished.
    pub completion_cycle: u64,
    /// Index of the batch that carried it.
    pub batch: usize,
}

impl RequestRecord {
    /// Arrival-to-completion latency.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        self.completion_cycle.saturating_sub(self.arrival_cycle)
    }

    /// Time spent queued before the batch closed.
    #[must_use]
    pub fn queueing_cycles(&self) -> u64 {
        self.dispatch_cycle.saturating_sub(self.arrival_cycle)
    }

    /// Time from batch dispatch to completion (service, including any
    /// wait for chip resources held by earlier batches).
    #[must_use]
    pub fn service_cycles(&self) -> u64 {
        self.completion_cycle.saturating_sub(self.dispatch_cycle)
    }
}

/// One batch as it was scheduled: request range, operator range in the
/// combined graph, dispatch and completion times.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Requests the batch carried (indices into the arrival trace).
    pub requests: std::ops::Range<usize>,
    /// Operator-id range of the batch's subgraph in the combined graph.
    pub ops: std::ops::Range<usize>,
    /// Cycle the batch closed (the release of all its operators).
    pub dispatch_cycle: u64,
    /// Cycle its last scheduled anchor finished.
    pub completion_cycle: u64,
}

/// Hit/miss counters of the serving simulator's two compile caches —
/// the per-request-count batch templates and the per-batch-shape
/// prepared traces. A snapshot, monotone over a simulator's lifetime:
/// subtract two snapshots to count one sweep's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServingCacheCounters {
    /// Batch-template lookups served from the cache.
    pub batch_hits: u64,
    /// Batch-template lookups that paid lowering + compilation.
    pub batch_misses: u64,
    /// Prepared-trace lookups served from the cache.
    pub trace_hits: u64,
    /// Prepared-trace lookups that paid concatenation + preparation.
    pub trace_misses: u64,
}

/// Everything one serving run produced: the scheduled trace plus the
/// per-request and per-batch accounting derived from it.
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Per-request workload (its batch is the samples *per request*).
    pub workload: Workload,
    /// Chips in the deployment.
    pub num_chips: usize,
    /// Parallelism every batch was lowered under.
    pub parallelism: ParallelismConfig,
    /// The combined compiled graph (all batches). Shared with the
    /// simulator's trace cache when the cached path produced it, so
    /// repeated runs of one batch shape don't duplicate the graph.
    pub compiled: Arc<CompiledGraph>,
    /// The scheduled trace (releases honoured, gaps on the timeline).
    pub simulation: SimulationResult,
    /// Per-batch schedule records, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Per-request records, in arrival order.
    pub requests: Vec<RequestRecord>,
    /// Compile-cache counters snapshot taken when the run finished.
    pub cache: ServingCacheCounters,
}

impl ServingOutcome {
    /// Makespan of the scheduled trace in cycles.
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.simulation.total_cycles()
    }

    /// Runs the static analyzer over the scheduled trace: the compiled
    /// graph's DAG rules plus the serving-record sanity checks — batch
    /// dispatch monotonicity (the admission queue is FIFO), causality
    /// (no batch dispatches before its requests arrive, nothing completes
    /// before it dispatches), operator ranges that tile the combined
    /// graph, and request conservation (every request in exactly one
    /// batch). Spans of record-level diagnostics are request/batch
    /// indices. [`ServingSimulator::verify`] adds the makespan-window
    /// containment check on top.
    #[must_use]
    pub fn analyze(&self) -> AnalysisReport {
        let mut report = AnalysisReport::new();
        report.extend(analysis::check_compiled_graph(&self.compiled));
        report.extend(self.trace_diagnostics());
        report
    }

    /// The serving-record half of [`ServingOutcome::analyze`].
    fn trace_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut previous_dispatch = 0u64;
        let mut previous_ops_end = 0usize;
        let mut previous_requests_end = 0usize;
        for (index, batch) in self.batches.iter().enumerate() {
            if batch.dispatch_cycle < previous_dispatch {
                out.push(Diagnostic::deny(
                    rules::SERVE_RELEASE_REGRESSION,
                    Some(OpSpan::single(index)),
                    format!(
                        "batch {index} dispatches at cycle {}, before batch {}'s dispatch at \
                         {previous_dispatch} — the FIFO admission order is violated",
                        batch.dispatch_cycle,
                        index.wrapping_sub(1)
                    ),
                ));
            }
            if batch.completion_cycle < batch.dispatch_cycle {
                out.push(Diagnostic::deny(
                    rules::SERVE_COMPLETION_BEFORE_DISPATCH,
                    Some(OpSpan::single(index)),
                    format!(
                        "batch {index} completes at cycle {} but dispatched at {}",
                        batch.completion_cycle, batch.dispatch_cycle
                    ),
                ));
            }
            if batch.ops.is_empty()
                || batch.ops.start != previous_ops_end
                || batch.ops.end > self.compiled.len()
            {
                out.push(Diagnostic::deny(
                    rules::SERVE_SPAN_OUT_OF_RANGE,
                    Some(OpSpan::single(index)),
                    format!(
                        "batch {index} covers ops {}..{} in a {}-op combined graph (previous \
                         batch ended at {previous_ops_end})",
                        batch.ops.start,
                        batch.ops.end,
                        self.compiled.len()
                    ),
                ));
            }
            if batch.requests.start != previous_requests_end || batch.requests.is_empty() {
                out.push(Diagnostic::deny(
                    rules::SERVE_BATCH_NOT_CONSERVED,
                    Some(OpSpan::single(index)),
                    format!(
                        "batch {index} carries requests {}..{} (previous batch ended at \
                         {previous_requests_end}) — requests must partition the trace in order",
                        batch.requests.start, batch.requests.end
                    ),
                ));
            }
            previous_dispatch = previous_dispatch.max(batch.dispatch_cycle);
            previous_ops_end = batch.ops.end.max(previous_ops_end);
            previous_requests_end = batch.requests.end.max(previous_requests_end);
        }
        if previous_ops_end != self.compiled.len() {
            out.push(Diagnostic::deny(
                rules::SERVE_SPAN_OUT_OF_RANGE,
                None,
                format!(
                    "batch subgraphs cover ops 0..{previous_ops_end} but the combined graph \
                     has {} operators",
                    self.compiled.len()
                ),
            ));
        }
        if previous_requests_end != self.requests.len() {
            out.push(Diagnostic::deny(
                rules::SERVE_BATCH_NOT_CONSERVED,
                None,
                format!(
                    "batches carry {previous_requests_end} requests but the trace served {}",
                    self.requests.len()
                ),
            ));
        }
        for (index, request) in self.requests.iter().enumerate() {
            if request.dispatch_cycle < request.arrival_cycle {
                out.push(Diagnostic::deny(
                    rules::SERVE_DISPATCH_BEFORE_ARRIVAL,
                    Some(OpSpan::single(index)),
                    format!(
                        "request {index} dispatched at cycle {} but arrived at {}",
                        request.dispatch_cycle, request.arrival_cycle
                    ),
                ));
            }
            if request.completion_cycle < request.dispatch_cycle {
                out.push(Diagnostic::deny(
                    rules::SERVE_COMPLETION_BEFORE_DISPATCH,
                    Some(OpSpan::single(index)),
                    format!(
                        "request {index} completes at cycle {} but dispatched at {}",
                        request.completion_cycle, request.dispatch_cycle
                    ),
                ));
            }
            if request.batch >= self.batches.len()
                || !self.batches[request.batch].requests.contains(&index)
            {
                out.push(Diagnostic::deny(
                    rules::SERVE_BATCH_NOT_CONSERVED,
                    Some(OpSpan::single(index)),
                    format!(
                        "request {index} claims batch {}, which does not carry it",
                        request.batch
                    ),
                ));
            }
        }
        out
    }

    /// Duty cycle *measured* from the schedule: the fraction of the
    /// makespan during which at least one real component (SA, VU, SRAM,
    /// HBM, ICI, DMA — everything but the always-on peripheral track) is
    /// busy. At saturating load this approaches 1; at low offered load it
    /// falls toward the paper's fleet average and below, which is the
    /// cross-check for the §3 out-of-duty-cycle leakage term.
    ///
    /// A zero-cycle makespan (a degenerate schedule with no timeline at
    /// all) reports 0.0: an empty makespan has no busy cycles, so it must
    /// not masquerade as a saturated deployment.
    #[must_use]
    pub fn measured_duty_cycle(&self) -> f64 {
        let total = self.simulation.total_cycles();
        if total == 0 {
            return 0.0;
        }
        let busy = self.simulation.busy_timeline().union_busy_cycles(&ComponentKind::GATEABLE);
        busy as f64 / total as f64
    }
}

/// One batch shape's trace, prepared for replay: the concatenated
/// compiled graph plus the release-independent simulator state. Only the
/// release cycles change between runs that form the same batch sizes.
#[derive(Debug)]
struct PreparedTrace {
    compiled: Arc<CompiledGraph>,
    /// [`analysis::check_compiled_graph`] of `compiled`, computed once:
    /// the graph never changes, so neither does its verdict.
    graph_verdict: Vec<Diagnostic>,
    prepared: PreparedSimulator,
    /// Op-id range of each batch's subgraph in the combined graph.
    op_ranges: Vec<std::ops::Range<usize>>,
}

/// Most prepared traces one simulator keeps: a long decode trace holds
/// tens of MiB. No perfbench point evicts; `serve_churn` serves at most
/// 12 shapes per simulator, `serve_steady` one.
const TRACE_CACHE_CAPACITY: usize = 16;

/// Batch-size sequence → prepared trace for the [`TRACE_CACHE_CAPACITY`]
/// most recently used sequences, least recently used first. A scan of 16
/// shapes costs nothing next to a replay, and its order is deterministic.
#[derive(Debug, Default)]
struct TraceCache(VecDeque<(Vec<usize>, Arc<PreparedTrace>)>);

impl TraceCache {
    /// The cached trace of `shape`, now the most recently used.
    fn get(&mut self, shape: &[usize]) -> Option<Arc<PreparedTrace>> {
        let position = self.0.iter().position(|(cached, _)| cached.as_slice() == shape)?;
        let entry = self.0.remove(position)?;
        let trace = Arc::clone(&entry.1);
        self.0.push_back(entry);
        Some(trace)
    }

    /// Caches the trace of `shape`, which [`TraceCache::get`] just
    /// missed, as the most recently used one, evicting the least recently
    /// used shape when full.
    fn insert(&mut self, shape: &[usize], trace: Arc<PreparedTrace>) {
        if self.0.len() == TRACE_CACHE_CAPACITY {
            self.0.pop_front();
        }
        self.0.push_back((shape.to_vec(), trace));
    }
}

/// One batch size's compiled subgraph and its per-anchor profile on the
/// simulator's chip, cached together: a trace of these templates is
/// assembled from the profiles instead of profiling its anchors again.
#[derive(Debug, Clone)]
struct BatchTemplate {
    compiled: Arc<CompiledGraph>,
    profile: Arc<AnchorProfile>,
}

/// Everything a serving simulator changes as it runs, behind its one
/// lock: both caches, their hit/miss counters and the engine's scratch
/// buffers.
#[derive(Debug, Default)]
struct Caches {
    /// Request count → batch template (keyed lookups only).
    templates: HashMap<usize, BatchTemplate>, // lint:allow(hash-iter)
    /// Batch-size sequence → prepared trace, bounded.
    traces: TraceCache,
    /// Reused event-loop buffers for the cached path.
    scratch: EngineScratch,
    /// Hit/miss counts of both caches.
    counters: ServingCacheCounters,
}

/// Simulates a request-serving NPU deployment: one chip model, one
/// parallelism, an arrival trace in, a scheduled timeline out.
///
/// Lowering, fusion, compilation, per-anchor profiling, SRAM allocation,
/// and dependency flattening are all release-independent, so the
/// simulator caches them at two levels keyed by batch shape: per *request
/// count* (one compiled batch subgraph and its anchor profile each) and
/// per *batch-size sequence* (the concatenated graph prepared for replay,
/// at most 16 sequences, least recently used evicted first). A sweep that
/// forms the same batch sizes across many arrival seeds or load points
/// pays the compile path once and then only re-runs the event loop; a new
/// sequence of cached sizes copies the templates' records and runs only
/// the whole-trace passes ([`Simulator::assemble`]). Both caches, their
/// counters and the engine's scratch buffers sit behind one lock, which
/// each entry point takes once.
#[derive(Debug)]
pub struct ServingSimulator {
    chip: ChipConfig,
    parallelism: ParallelismConfig,
    workload: Workload,
    compiler: Compiler,
    caches: Mutex<Caches>,
}

impl ServingSimulator {
    /// Creates a serving simulator. `workload.batch()` is the number of
    /// samples *one request* carries (e.g. 1 for a single recommendation
    /// query, the decode batch share of one sequence, …) and must be at
    /// least 1. The parallelism is the workload's default for the
    /// deployment size.
    ///
    /// # Panics
    ///
    /// Panics with the rendered denial, which names its rule, if the
    /// workload carries zero samples per request or no valid parallelism
    /// configuration exists for the deployment (use
    /// [`ServingSimulator::try_new`] to handle the denial
    /// programmatically).
    #[must_use]
    pub fn new(generation: NpuGeneration, num_chips: usize, workload: Workload) -> Self {
        Self::try_new(generation, num_chips, workload).unwrap_or_else(|report| {
            panic!("cannot serve {workload} on {num_chips} chip(s):\n{}", report.render())
        })
    }

    /// Like [`ServingSimulator::new`], but denies a deployment it cannot
    /// serve instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisReport`] carrying a `serve.empty-request`
    /// denial when the workload carries zero samples per request, or a
    /// `topo.parallelism-infeasible` denial when no valid parallelism
    /// configuration exists for the deployment
    /// ([`analysis::feasible_parallelism`]).
    pub fn try_new(
        generation: NpuGeneration,
        num_chips: usize,
        workload: Workload,
    ) -> Result<Self, AnalysisReport> {
        if workload.batch() == 0 {
            let message = format!("{workload} carries 0 samples per request: nothing to lower");
            let mut report = AnalysisReport::new();
            report.extend([Diagnostic::deny(rules::SERVE_EMPTY_REQUEST, None, message)]);
            return Err(report);
        }
        let chip = ChipConfig::new(generation, num_chips);
        let parallelism = analysis::feasible_parallelism(&workload, chip.spec(), num_chips)?;
        Ok(Self::with_parallelism(generation, num_chips, workload, parallelism))
    }

    /// Like [`ServingSimulator::new`] with an explicit parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the workload carries zero samples per request.
    #[must_use]
    pub fn with_parallelism(
        generation: NpuGeneration,
        num_chips: usize,
        workload: Workload,
        parallelism: ParallelismConfig,
    ) -> Self {
        assert!(workload.batch() >= 1, "a request must carry at least one sample");
        let chip = ChipConfig::new(generation, num_chips);
        let compiler = Compiler::new(chip.spec().clone());
        ServingSimulator { chip, parallelism, workload, compiler, caches: Mutex::default() }
    }

    /// A snapshot of the compile-cache hit/miss counters, cumulative over
    /// this simulator's lifetime.
    #[must_use]
    pub fn cache_counters(&self) -> ServingCacheCounters {
        self.caches().counters
    }

    /// The caches, locked.
    fn caches(&self) -> MutexGuard<'_, Caches> {
        self.caches.lock().expect("a serving run panicked while holding the caches")
    }

    /// The chip deployment being simulated.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// The parallelism every batch is lowered under.
    #[must_use]
    pub fn parallelism(&self) -> &ParallelismConfig {
        &self.parallelism
    }

    /// The per-request workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Serves an arrival trace under a batching policy, reusing the
    /// compiled-graph and prepared-simulator caches: the first run of a
    /// batch shape pays lowering/fusion/compilation/allocation, repeated
    /// shapes only replay the event loop with new release cycles. The
    /// schedule is bit-for-bit identical to
    /// [`ServingSimulator::run_uncached`] (pinned by the
    /// `serving_invariants` corpus test).
    ///
    /// # Panics
    ///
    /// Panics with the rendered denial if the trace is empty or decreases
    /// anywhere (see [`ServingSimulator::try_run`]).
    #[must_use]
    pub fn run(&self, arrivals: &[u64], policy: &BatchPolicy) -> ServingOutcome {
        expect_servable(arrivals);
        self.serve(arrivals, policy)
    }

    /// Like [`ServingSimulator::run`], but denies an arrival trace it
    /// cannot serve instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisReport`] carrying a `serve.empty-trace` denial
    /// for an empty trace, or a `serve.release-regression` denial for the
    /// first request that arrives before its predecessor (its span is
    /// that later request's index).
    pub fn try_run(
        &self,
        arrivals: &[u64],
        policy: &BatchPolicy,
    ) -> Result<ServingOutcome, AnalysisReport> {
        check_arrivals(arrivals)?;
        Ok(self.serve(arrivals, policy))
    }

    /// The cached serving path of [`ServingSimulator::run`] on a checked
    /// arrival trace.
    fn serve(&self, arrivals: &[u64], policy: &BatchPolicy) -> ServingOutcome {
        let mut caches = self.caches();
        let (trace, batches, releases) = self.plan(&mut caches, arrivals, policy);
        let simulation = trace.prepared.run_with_scratch(&releases, &mut caches.scratch);
        self.finish(arrivals, Arc::clone(&trace.compiled), simulation, batches, caches.counters)
    }

    /// Like [`ServingSimulator::run`], but observes the replay with a
    /// [`TraceRecorder`] and returns it alongside the outcome: every
    /// resource occupancy as a display-track slice plus one flow event
    /// per dispatched batch. The schedule itself is bit-identical to the
    /// unobserved [`ServingSimulator::run`] — observers never influence
    /// the engine.
    ///
    /// # Panics
    ///
    /// Panics with the rendered denial if the trace is empty or decreases
    /// anywhere (see [`ServingSimulator::try_run`]).
    #[must_use]
    pub fn run_traced(
        &self,
        arrivals: &[u64],
        policy: &BatchPolicy,
    ) -> (ServingOutcome, TraceRecorder) {
        expect_servable(arrivals);
        let mut caches = self.caches();
        let (trace, batches, releases) = self.plan(&mut caches, arrivals, policy);
        let mut recorder = TraceRecorder::for_set(&trace.prepared.resources());
        let simulation =
            trace.prepared.run_with_scratch_observed(&releases, &mut caches.scratch, &mut recorder);
        let compiled = Arc::clone(&trace.compiled);
        let outcome = self.finish(arrivals, compiled, simulation, batches, caches.counters);
        for (index, batch) in outcome.batches.iter().enumerate() {
            recorder.add_batch_flow(index, batch.dispatch_cycle, batch.completion_cycle);
        }
        (outcome, recorder)
    }

    /// The planning step of the cached path: forms `arrivals` into
    /// batches, fetches (or prepares) the trace of their batch-size
    /// sequence, and returns it with the batch records (completions still
    /// unset) and the per-anchor release vector to replay it under.
    fn plan(
        &self,
        caches: &mut Caches,
        arrivals: &[u64],
        policy: &BatchPolicy,
    ) -> (Arc<PreparedTrace>, Vec<BatchRecord>, Vec<u64>) {
        let formed = policy.form(arrivals);
        let shape: Vec<usize> = formed.iter().map(FormedBatch::len).collect();
        let trace = self.prepared_trace(caches, &shape);
        let batches: Vec<BatchRecord> = formed
            .into_iter()
            .zip(&trace.op_ranges)
            .map(|(batch, ops)| BatchRecord {
                requests: batch.requests,
                ops: ops.clone(),
                dispatch_cycle: batch.dispatch_cycle,
                completion_cycle: 0,
            })
            .collect();
        let releases = batch_releases(
            &trace.compiled,
            batches.iter().map(|batch| (&batch.ops, batch.dispatch_cycle)),
        );
        (trace, batches, releases)
    }

    /// Serves an arrival trace by lowering and compiling every batch from
    /// scratch — the pre-cache path, kept as the correctness baseline the
    /// cached [`ServingSimulator::run`] is digest-compared against.
    ///
    /// # Panics
    ///
    /// Panics with the rendered denial if the trace is empty or decreases
    /// anywhere (see [`ServingSimulator::try_run`]).
    #[must_use]
    pub fn run_uncached(&self, arrivals: &[u64], policy: &BatchPolicy) -> ServingOutcome {
        expect_servable(arrivals);
        // Lower every batch and concatenate the subgraphs; no cross-batch
        // edges exist, so only release times and resource contention
        // order the batches on the timeline.
        let mut combined = OperatorGraph::new(format!(
            "{}-serving-{}req-{}",
            self.workload.label(),
            arrivals.len(),
            self.parallelism
        ));
        let batches: Vec<BatchRecord> = policy
            .form(arrivals)
            .into_iter()
            .map(|batch| BatchRecord {
                ops: combined.extend_from(&self.lower(batch.len())),
                requests: batch.requests,
                dispatch_cycle: batch.dispatch_cycle,
                completion_cycle: 0,
            })
            .collect();

        let compiled = self.compiler.compile(&combined);
        let releases = batch_releases(
            &compiled,
            batches.iter().map(|batch| (&batch.ops, batch.dispatch_cycle)),
        );
        let simulation = Simulator::new(self.chip.clone()).run_with_releases(&compiled, &releases);
        self.finish(arrivals, Arc::new(compiled), simulation, batches, self.cache_counters())
    }

    /// The operator graph of one batch of `num_requests` requests, the one
    /// place a serving batch is lowered: the per-request workload scaled
    /// to the batch's samples, through [`Workload::build_request_graph`].
    fn lower(&self, num_requests: usize) -> OperatorGraph {
        let samples = self.workload.batch() * num_requests as u64;
        self.workload
            .with_batch(samples)
            .build_request_graph(&self.parallelism, num_requests as u64)
    }

    /// [`ServingSimulator::lower`] compiled and profiled, once per request
    /// count.
    fn batch_template(&self, caches: &mut Caches, num_requests: usize) -> BatchTemplate {
        if let Some(template) = caches.templates.get(&num_requests) {
            caches.counters.batch_hits += 1;
            return template.clone();
        }
        caches.counters.batch_misses += 1;
        let compiled = self.compiler.compile(&self.lower(num_requests));
        let profile = Arc::new(Simulator::new(self.chip.clone()).profile(&compiled));
        let template = BatchTemplate { compiled: Arc::new(compiled), profile };
        caches.templates.insert(num_requests, template.clone());
        template
    }

    /// The prepared trace of one batch-size sequence: per-batch compiled
    /// templates concatenated (compilation is edge-local, so this equals
    /// compiling the concatenated operator graph — pinned by the
    /// `concatenating_compiled_subgraphs_matches_compiling_the_concatenation`
    /// test) and assembled for release-vector replay from the templates'
    /// anchor profiles (profiling is anchor-local, so this equals
    /// preparing the concatenation). The combined graph is sized once,
    /// from the templates' totals, before anything is appended.
    fn prepared_trace(&self, caches: &mut Caches, shape: &[usize]) -> Arc<PreparedTrace> {
        if let Some(trace) = caches.traces.get(shape) {
            caches.counters.trace_hits += 1;
            return trace;
        }
        caches.counters.trace_misses += 1;
        let templates: Vec<BatchTemplate> =
            shape.iter().map(|&count| self.batch_template(caches, count)).collect();
        let mut combined = CompiledGraph::empty(format!(
            "{}-serving-{}req-{}",
            self.workload.label(),
            shape.iter().sum::<usize>(),
            self.parallelism
        ));
        combined.reserve(
            templates.iter().map(|t| t.compiled.len()).sum(),
            templates.iter().map(|t| t.compiled.num_anchors()).sum(),
            templates.iter().map(|t| t.compiled.num_edges()).sum(),
        );
        let op_ranges =
            templates.iter().map(|template| combined.extend_from(&template.compiled)).collect();
        let prepared = Simulator::new(self.chip.clone())
            .assemble(&combined, templates.into_iter().map(|template| template.profile).collect());
        let trace = Arc::new(PreparedTrace {
            graph_verdict: analysis::check_compiled_graph(&combined),
            compiled: Arc::new(combined),
            prepared,
            op_ranges,
        });
        caches.traces.insert(shape, Arc::clone(&trace));
        trace
    }

    /// The full static verdict on one serving outcome: the outcome's own
    /// record checks ([`ServingOutcome::analyze`]) plus the phase-level
    /// analyzer on the prepared trace — which brackets the *measured*
    /// makespan inside the static `[critical path, serial sum]` window
    /// and audits the SRAM allocation — without re-running the schedule.
    ///
    /// Cached trace preparations make this cheap in a sweep: an outcome
    /// whose graph *is* the cached trace's (every [`ServingSimulator::run`]
    /// and [`ServingSimulator::run_traced`] outcome) reuses the graph
    /// verdict stored with the trace, and any other outcome has its graph
    /// checked afresh; the report is the same either way. Record checks
    /// run first, so an outcome with corrupted records never reaches the
    /// trace cache, and verifying a cached shape changes no cache counter.
    #[must_use]
    pub fn verify(&self, outcome: &ServingOutcome) -> AnalysisReport {
        let records = outcome.trace_diagnostics();
        let shape: Vec<usize> = outcome.batches.iter().map(|b| b.requests.len()).collect();
        let records_clean = records.iter().all(|d| d.severity != Severity::Deny);
        let mut caches = self.caches();
        let cached =
            (records_clean && !shape.is_empty()).then(|| caches.traces.get(&shape)).flatten();
        let graph = match &cached {
            Some(trace) if Arc::ptr_eq(&outcome.compiled, &trace.compiled) => {
                trace.graph_verdict.clone()
            }
            _ => analysis::check_compiled_graph(&outcome.compiled),
        };
        let mut report = AnalysisReport::new();
        report.extend(graph);
        report.extend(records);
        if shape.is_empty() || !report.is_schedulable() {
            return report;
        }
        let trace = cached.unwrap_or_else(|| self.prepared_trace(&mut caches, &shape));
        let releases = batch_releases(
            &trace.compiled,
            trace.op_ranges.iter().zip(outcome.batches.iter().map(|batch| batch.dispatch_cycle)),
        );
        report.merge(trace.prepared.analyze(&releases, Some(outcome.makespan_cycles())));
        report
    }

    /// Shared post-processing of a scheduled trace: per-batch completion
    /// times and per-request records, with the cache counters `cache`.
    fn finish(
        &self,
        arrivals: &[u64],
        compiled: Arc<CompiledGraph>,
        simulation: SimulationResult,
        mut batches: Vec<BatchRecord>,
        cache: ServingCacheCounters,
    ) -> ServingOutcome {
        // Batch completion: the latest finish among the batch's anchors
        // (its merge fans in over every sink, so in practice this is the
        // merge's finish).
        let schedule = simulation.schedule();
        for record in &mut batches {
            record.completion_cycle = schedule[batch_anchors(&compiled, &record.ops)]
                .iter()
                .map(|op| op.finish)
                .max()
                .expect("a batch subgraph is never empty");
        }

        let mut requests = Vec::with_capacity(arrivals.len());
        for (batch_index, record) in batches.iter().enumerate() {
            for r in record.requests.clone() {
                requests.push(RequestRecord {
                    arrival_cycle: arrivals[r],
                    dispatch_cycle: record.dispatch_cycle,
                    completion_cycle: record.completion_cycle,
                    batch: batch_index,
                });
            }
        }

        ServingOutcome {
            workload: self.workload,
            num_chips: self.chip.num_chips(),
            parallelism: self.parallelism,
            compiled,
            simulation,
            batches,
            requests,
            cache,
        }
    }
}

/// The anchor indices of the batch whose operators are `ops` in `graph`:
/// the anchors whose ids fall inside the range. No fusion group spans two
/// batches, so these run exactly the batch's operators.
fn batch_anchors(graph: &CompiledGraph, ops: &std::ops::Range<usize>) -> std::ops::Range<usize> {
    let ids = graph.anchor_ids();
    ids.partition_point(|&id| id < ops.start)..ids.partition_point(|&id| id < ops.end)
}

/// The serving release rule: every anchor of a batch is released at its
/// batch's dispatch cycle. Takes each batch's operator range (contiguous,
/// in order) with its dispatch cycle; returns one release per anchor of
/// `graph`.
fn batch_releases<'a>(
    graph: &CompiledGraph,
    batches: impl Iterator<Item = (&'a std::ops::Range<usize>, u64)>,
) -> Vec<u64> {
    let mut releases = Vec::with_capacity(graph.num_anchors());
    for (ops, dispatch_cycle) in batches {
        let anchors = batch_anchors(graph, ops);
        debug_assert_eq!(releases.len(), anchors.start, "batch subgraphs are contiguous");
        releases.resize(anchors.end, dispatch_cycle);
    }
    releases
}

/// The arrival-trace contract every serving entry point shares: at least
/// one request, in non-decreasing arrival order (FIFO admission).
fn check_arrivals(arrivals: &[u64]) -> Result<(), AnalysisReport> {
    let denial = if arrivals.is_empty() {
        Diagnostic::deny(rules::SERVE_EMPTY_TRACE, None, "an empty arrival trace serves nothing")
    } else if let Some(later) = (1..arrivals.len()).find(|&r| arrivals[r] < arrivals[r - 1]) {
        Diagnostic::deny(
            rules::SERVE_RELEASE_REGRESSION,
            Some(OpSpan::single(later)),
            format!(
                "request {later} arrives at cycle {}, before request {}'s arrival at {} — the \
                 arrival trace must be non-decreasing",
                arrivals[later],
                later - 1,
                arrivals[later - 1]
            ),
        )
    } else {
        return Ok(());
    };
    let mut report = AnalysisReport::new();
    report.extend([denial]);
    Err(report)
}

/// [`check_arrivals`] for the panicking entry points.
fn expect_servable(arrivals: &[u64]) {
    if let Err(report) = check_arrivals(arrivals) {
        panic!("unservable arrival trace:\n{}", report.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use npu_models::{DlrmSize, Workload};

    const ARRIVALS: [u64; 5] = [0, 1_000, 350_000, 360_000, 900_000];
    const POLICY: BatchPolicy = BatchPolicy::Static { batch: 2 };

    fn dlrm_simulator() -> ServingSimulator {
        ServingSimulator::new(NpuGeneration::D, 1, Workload::dlrm(DlrmSize::Small).with_batch(8))
    }

    fn outcome_and_simulator() -> (ServingSimulator, ServingOutcome) {
        let simulator = dlrm_simulator();
        let outcome = simulator.run(&ARRIVALS, &POLICY);
        (simulator, outcome)
    }

    /// Two-sequence Llama3-70B decode: its weights fit one NPU-D chip's
    /// HBM under no split.
    fn infeasible_on_one_chip() -> Workload {
        use npu_models::{LlamaModel, LlmPhase};
        Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode).with_batch(2)
    }

    #[test]
    fn infeasible_deployments_are_denied_not_fabricated() {
        let report = ServingSimulator::try_new(NpuGeneration::D, 1, infeasible_on_one_chip())
            .expect_err("70B decode cannot fit one chip");
        assert!(!report.is_schedulable());
        assert!(
            report.denials().any(|d| d.rule_id == rules::TOPO_PARALLELISM_INFEASIBLE),
            "{}",
            report.render()
        );
    }

    #[test]
    #[should_panic(expected = "topo.parallelism-infeasible")]
    fn new_panics_on_an_infeasible_deployment() {
        let _ = ServingSimulator::new(NpuGeneration::D, 1, infeasible_on_one_chip());
    }

    #[test]
    #[should_panic(expected = "serve.empty-request")]
    fn new_panics_naming_the_empty_request_rule() {
        let _ = ServingSimulator::new(
            NpuGeneration::D,
            1,
            Workload::dlrm(DlrmSize::Small).with_batch(0),
        );
    }

    #[test]
    fn unservable_arrival_traces_are_denied_not_panicked() {
        let simulator = dlrm_simulator();
        let report = simulator.try_run(&[], &POLICY).expect_err("an empty trace serves nothing");
        assert_eq!(report.deny_count(), 1, "{}", report.render());
        assert_eq!(report.diagnostics[0].rule_id, rules::SERVE_EMPTY_TRACE);

        let report = simulator.try_run(&[5, 3], &POLICY).expect_err("arrivals decrease");
        assert_eq!(report.deny_count(), 1, "{}", report.render());
        let denial = &report.diagnostics[0];
        assert_eq!(denial.rule_id, rules::SERVE_RELEASE_REGRESSION);
        assert_eq!(denial.span, Some(OpSpan::single(1)), "the later request is the span");

        let served = simulator.try_run(&ARRIVALS, &POLICY).expect("a sorted trace is servable");
        assert_eq!(served.makespan_cycles(), simulator.run(&ARRIVALS, &POLICY).makespan_cycles());
    }

    #[test]
    #[should_panic(expected = "serve.release-regression")]
    fn run_panics_naming_the_denied_rule() {
        let _ = dlrm_simulator().run(&[5, 3], &POLICY);
    }

    /// Corrupted-record fixtures: each edit of a clean outcome and the
    /// rules it must trip.
    type Corruption = (fn(&mut ServingOutcome), &'static [&'static str]);

    fn corruptions() -> [Corruption; 3] {
        [
            // Batch dispatch regression + a request dispatched before
            // arrival.
            (
                |outcome| {
                    let last = outcome.batches.len() - 1;
                    outcome.batches[last].dispatch_cycle = 0;
                    outcome.requests[0].dispatch_cycle = 0;
                    outcome.requests[0].arrival_cycle = 10;
                },
                &[rules::SERVE_RELEASE_REGRESSION, rules::SERVE_DISPATCH_BEFORE_ARRIVAL],
            ),
            // A batch that completes before it dispatches and ops that no
            // longer tile the combined graph.
            (
                |outcome| {
                    outcome.batches[0].completion_cycle = 0;
                    outcome.batches[0].dispatch_cycle = 99;
                    outcome.batches[0].ops.end -= 1;
                },
                &[rules::SERVE_COMPLETION_BEFORE_DISPATCH, rules::SERVE_SPAN_OUT_OF_RANGE],
            ),
            // A request claiming a batch that does not carry it.
            (
                |outcome| outcome.requests[0].batch = outcome.batches.len() - 1,
                &[rules::SERVE_BATCH_NOT_CONSERVED],
            ),
        ]
    }

    #[test]
    fn measured_duty_cycle_is_a_fraction_and_zero_on_an_empty_makespan() {
        let (_, outcome) = outcome_and_simulator();
        let duty = outcome.measured_duty_cycle();
        assert!(duty > 0.0 && duty <= 1.0, "duty cycle {duty} must be a fraction of the makespan");

        // Regression: a zero-cycle makespan used to report 1.0 — a
        // schedule with no timeline masqueraded as a saturated one.
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let empty = ServingOutcome {
            simulation: Simulator::new(chip).run(&CompiledGraph::empty("empty")),
            compiled: Arc::new(CompiledGraph::empty("empty")),
            batches: Vec::new(),
            requests: Vec::new(),
            ..outcome
        };
        assert_eq!(empty.makespan_cycles(), 0);
        assert_eq!(empty.measured_duty_cycle(), 0.0);
    }

    #[test]
    fn clean_serving_outcome_passes_analysis_and_verification() {
        let (simulator, outcome) = outcome_and_simulator();
        let report = outcome.analyze();
        assert!(report.is_schedulable(), "{}", report.render());
        let verified = simulator.verify(&outcome);
        assert!(verified.is_schedulable(), "{}", verified.render());
        let window = verified.makespan_window.expect("verification brackets the makespan");
        assert!(window.contains(outcome.makespan_cycles()));
    }

    #[test]
    fn cache_counters_accumulate_and_traced_replay_matches_unobserved() {
        let (simulator, outcome) = outcome_and_simulator();
        // Shape [2, 2, 1]: the 2-request template misses then hits, the
        // 1-request template misses, the trace shape misses.
        assert_eq!(outcome.cache.batch_misses, 2);
        assert_eq!(outcome.cache.batch_hits, 1);
        assert_eq!(outcome.cache.trace_misses, 1);
        assert_eq!(outcome.cache.trace_hits, 0);

        let (traced, recorder) = simulator.run_traced(&ARRIVALS, &POLICY);
        // The same shape again: a pure prepared-trace hit.
        assert_eq!(traced.cache.trace_hits, 1);
        assert_eq!(traced.cache.trace_misses, 1);

        // The observer never influences the schedule, and the recorder
        // carries one flow per dispatched batch.
        assert_eq!(traced.makespan_cycles(), outcome.makespan_cycles());
        assert_eq!(traced.simulation.counters(), outcome.simulation.counters());
        assert!(traced.simulation.counters().events_popped > 0);
        assert!(recorder.num_slices() > 0);
        let json = recorder.chrome_json();
        for index in 0..traced.batches.len() {
            assert!(json.contains(&format!("\"batch{index}\"")), "missing flow {index}");
        }
    }

    #[test]
    fn corrupted_serving_records_are_denied() {
        for (corrupt, denied) in corruptions() {
            let (_, mut outcome) = outcome_and_simulator();
            corrupt(&mut outcome);
            let report = outcome.analyze();
            for rule in denied {
                assert!(report.denials().any(|d| d.rule_id == *rule), "{rule} not denied");
            }
        }
    }

    #[test]
    fn trace_cache_evicts_the_least_recently_used_shape() {
        let simulator = dlrm_simulator();
        // One batch of `requests` requests: trace shape `[requests]`.
        let serve = |requests: usize| {
            let before = simulator.cache_counters().trace_hits;
            let outcome =
                simulator.run(&vec![0; requests], &BatchPolicy::Static { batch: requests });
            (outcome.cache.trace_hits > before, outcome)
        };
        for requests in 1..=TRACE_CACHE_CAPACITY {
            assert!(!serve(requests).0, "shape [{requests}] is new");
        }
        // Touching [1] leaves [2] least recently used, so a 17th shape
        // evicts [2].
        assert!(serve(1).0);
        assert!(!serve(TRACE_CACHE_CAPACITY + 1).0);
        assert_eq!(simulator.caches().traces.0.len(), TRACE_CACHE_CAPACITY);
        assert!(serve(1).0);
        assert!(serve(TRACE_CACHE_CAPACITY + 1).0);
        let (hit, replayed) = serve(2);
        assert!(!hit, "[2] was evicted");
        let fresh = simulator.run_uncached(&[0, 0], &BatchPolicy::Static { batch: 2 });
        assert_eq!(replayed.simulation.schedule(), fresh.simulation.schedule());
        assert_eq!(replayed.batches, fresh.batches);
        assert_eq!(replayed.requests, fresh.requests);
    }

    #[test]
    fn verifying_a_cached_shape_changes_no_cache_counter() {
        // Regression: `verify` used to look the trace up through the
        // counted path, so every verification of a cached shape counted
        // as a trace-cache hit.
        let (simulator, outcome) = outcome_and_simulator();
        let after_run = simulator.cache_counters();
        for _ in 0..2 {
            assert!(simulator.verify(&outcome).is_schedulable());
        }
        assert_eq!(simulator.cache_counters(), after_run);
        // Neither does a fresh-compile outcome of the cached shape.
        let uncached = simulator.run_uncached(&ARRIVALS, &POLICY);
        assert!(simulator.verify(&uncached).is_schedulable());
        assert_eq!(simulator.cache_counters(), after_run);
    }

    #[test]
    fn stored_and_recomputed_graph_verdicts_verify_alike() {
        // A `run` outcome shares the cached trace's graph, so `verify`
        // reuses the verdict stored with the trace; a `run_uncached`
        // outcome of the same arrivals has its own graph, so `verify`
        // checks it afresh. Both must produce the same report, clean or
        // corrupted.
        let (simulator, outcome) = outcome_and_simulator();
        let uncached = simulator.run_uncached(&ARRIVALS, &POLICY);
        assert!(!Arc::ptr_eq(&outcome.compiled, &uncached.compiled));
        let clean = simulator.verify(&outcome);
        assert!(clean.makespan_window.is_some(), "{}", clean.render());
        assert_eq!(clean, simulator.verify(&uncached));

        // Corrupted records are denied before the trace cache is reached:
        // a simulator that never served the shape stays cold.
        let cold = dlrm_simulator();
        for (corrupt, _) in corruptions() {
            let (mut cached, mut fresh) = (outcome.clone(), uncached.clone());
            corrupt(&mut cached);
            corrupt(&mut fresh);
            let report = simulator.verify(&cached);
            assert!(!report.is_schedulable(), "{}", report.render());
            assert_eq!(report, simulator.verify(&fresh));
            assert_eq!(report, cold.verify(&cached));
            assert_eq!(report, cached.analyze());
        }
        assert_eq!(cold.cache_counters(), ServingCacheCounters::default());
    }
}
