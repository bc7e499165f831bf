//! One deliberately broken fixture per static-analyzer rule.
//!
//! The analyzer ([`npu_sim::analysis`]) is used as an oracle by the
//! invariant suites and by the evaluation binaries, so this suite proves
//! it is *non-vacuous*: for every rule in the catalog there is an input
//! that triggers exactly that rule id at exactly the documented severity,
//! alongside a clean twin that does not. Illegal dependency structure —
//! unconstructible through `Compiler::compile` — is assembled through the
//! deliberate back door `CompiledGraph::from_parts`; legal-but-suspicious
//! shapes come from `npu_models::fixtures`; serving-record defects are
//! injected by mutating real `RequestGraph`s and `ServingOutcome`s.

use npu_arch::{ChipConfig, FabricKind, Link, LinkGraph, NpuGeneration, PodTopology, TorusKind};
use npu_compiler::{CollectivePlan, CompiledGraph, CompiledOp, Compiler, SramAllocation};
use npu_models::{fixtures, CollectiveKind, DlrmSize, Workload};
use npu_power::{
    ClockGating, DvfsScaling, GatingParams, LeakageRatios, TileGrainRegating, WriteBackGating,
};
use npu_serving::{BatchPolicy, ServingSimulator};
use npu_sim::analysis::{self, rules};
use npu_sim::pod::PodBuilder;
use npu_sim::timeline::{OpPhases, Resource, ResourceId, ResourceSet, ResourceTimeline};
use npu_sim::{Diagnostic, Severity, SramCapacityReport, TraceRecorder};

fn chip() -> ChipConfig {
    ChipConfig::new(NpuGeneration::D, 1)
}

fn compile(graph: &npu_models::OperatorGraph) -> CompiledGraph {
    Compiler::new(chip().spec().clone()).compile(graph)
}

/// Disassembles a compiled graph into the raw parts `from_parts` accepts,
/// so fixtures can corrupt one edge of an otherwise-real compilation.
fn parts(graph: &CompiledGraph) -> (Vec<CompiledOp>, Vec<Vec<usize>>) {
    let ops = graph.ops().to_vec();
    let producers = (0..ops.len()).map(|id| graph.producers_of(id).to_vec()).collect();
    (ops, producers)
}

/// Asserts `diagnostics` contains `rule` at exactly `severity`.
fn assert_rule(diagnostics: &[Diagnostic], rule: &str, severity: Severity) {
    let hit = diagnostics
        .iter()
        .find(|d| d.rule_id == rule)
        .unwrap_or_else(|| panic!("rule {rule} did not fire; got {diagnostics:?}"));
    assert_eq!(hit.severity, severity, "rule {rule} fired at the wrong severity: {hit:?}");
}

fn assert_no_rule(diagnostics: &[Diagnostic], rule: &str) {
    assert!(
        diagnostics.iter().all(|d| d.rule_id != rule),
        "rule {rule} fired on a clean fixture: {diagnostics:?}"
    );
}

// ---------------------------------------------------------------------
// DAG rules
// ---------------------------------------------------------------------

#[test]
fn clean_diamond_compiles_clean() {
    let diagnostics = analysis::check_compiled_graph(&compile(&fixtures::clean_diamond()));
    assert!(diagnostics.is_empty(), "negative control dirtied: {diagnostics:?}");
}

#[test]
fn dag_empty_graph_is_noted() {
    let diagnostics = analysis::check_compiled_graph(&CompiledGraph::empty("void"));
    assert_rule(&diagnostics, rules::DAG_EMPTY_GRAPH, Severity::Note);
    assert_eq!(diagnostics.len(), 1);
}

#[test]
fn dag_producer_out_of_range_is_denied() {
    let (ops, mut producers) = parts(&compile(&fixtures::clean_diamond()));
    producers[3].push(99);
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_PRODUCER_OUT_OF_RANGE, Severity::Deny);
}

#[test]
fn dag_cycle_is_denied() {
    let (ops, mut producers) = parts(&compile(&fixtures::clean_diamond()));
    // b (id 1) now also consumes from c (id 2): a backward edge.
    producers[1].push(2);
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_CYCLE, Severity::Deny);
}

#[test]
fn dag_producer_fused_away_is_denied() {
    let (mut ops, mut producers) = parts(&compile(&fixtures::clean_diamond()));
    // Fold b into a, remap nothing: d still lists the fused-away b.
    ops[1].folded_into = Some(0);
    producers[1].clear();
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_PRODUCER_FUSED_AWAY, Severity::Deny);
    assert_no_rule(&diagnostics, rules::DAG_FOLDED_OP_KEEPS_EDGES);
}

#[test]
fn dag_folded_op_keeping_edges_is_denied() {
    let (mut ops, producers) = parts(&compile(&fixtures::clean_diamond()));
    // Fold b into a but leave b's producer list in place.
    ops[1].folded_into = Some(0);
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_FOLDED_OP_KEEPS_EDGES, Severity::Deny);
}

#[test]
fn dag_folded_into_invalid_is_denied() {
    let (mut ops, mut producers) = parts(&compile(&fixtures::clean_diamond()));
    // b folds into itself — not an anchor reference at all.
    ops[1].folded_into = Some(1);
    producers[1].clear();
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_FOLDED_INTO_INVALID, Severity::Deny);
}

#[test]
fn dag_unreachable_op_is_denied() {
    let (ops, mut producers) = parts(&compile(&fixtures::clean_diamond()));
    // b waits on a dangling producer, so b — and d behind it — can never
    // become ready.
    producers[1].push(99);
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("broken", ops, producers));
    assert_rule(&diagnostics, rules::DAG_UNREACHABLE_OP, Severity::Deny);
    assert!(
        diagnostics.iter().filter(|d| d.rule_id == rules::DAG_UNREACHABLE_OP).count() >= 2,
        "the stuck set must include the ops *behind* the dangling producer"
    );
}

#[test]
fn dag_orphan_sink_is_warned() {
    let diagnostics = analysis::check_compiled_graph(&compile(&fixtures::disconnected_op()));
    assert_rule(&diagnostics, rules::DAG_ORPHAN_SINK, Severity::Warn);
}

#[test]
fn dag_redundant_edge_is_noted() {
    let diagnostics =
        analysis::check_compiled_graph(&compile(&fixtures::redundant_transitive_edge()));
    assert_rule(&diagnostics, rules::DAG_REDUNDANT_EDGE, Severity::Note);
    assert_no_rule(&diagnostics, rules::DAG_ORPHAN_SINK);
}

#[test]
fn dag_redundant_edge_pass_skips_past_the_anchor_budget() {
    // A 4097-anchor chain: one past the ancestor-bitset budget. The pass
    // must bail out loudly (a Note), never silently.
    let template = compile(&fixtures::clean_diamond()).ops()[0].clone();
    let n = 4097usize;
    let ops: Vec<CompiledOp> = (0..n).map(|_| template.clone()).collect();
    let producers: Vec<Vec<usize>> =
        (0..n).map(|id| if id == 0 { vec![] } else { vec![id - 1] }).collect();
    let diagnostics =
        analysis::check_compiled_graph(&CompiledGraph::from_parts("mega-chain", ops, producers));
    assert_rule(&diagnostics, rules::DAG_REDUNDANT_EDGE_SKIPPED, Severity::Note);
    assert_no_rule(&diagnostics, rules::DAG_REDUNDANT_EDGE);
}

// ---------------------------------------------------------------------
// Time rules
// ---------------------------------------------------------------------

fn sa_phase(main_cycles: u64, producers: Vec<usize>) -> OpPhases {
    OpPhases {
        unit: Resource::Sa.into(),
        main_cycles,
        dma_cycles: 0,
        dma_lead_cycles: 0,
        fused_vu_cycles: 0,
        dispatch_cycles: 100,
        sa_active_cycles: main_cycles,
        producers,
        collective: None,
    }
}

#[test]
fn time_release_length_mismatch_is_denied() {
    let phases = vec![sa_phase(1_000, vec![]), sa_phase(2_000, vec![0])];
    let report = analysis::analyze_phases(&phases, &[0], None);
    assert_rule(&report.diagnostics, rules::TIME_RELEASE_LENGTH_MISMATCH, Severity::Deny);
    assert!(report.makespan_window.is_none());
}

#[test]
fn time_makespan_outside_the_window_is_denied() {
    let phases = vec![sa_phase(1_000, vec![]), sa_phase(2_000, vec![0])];
    // Serial chain: window floor = 100+1000+100+2000 = 3200 = ceiling.
    let clean = analysis::analyze_phases(&phases, &[], Some(3_200));
    assert!(clean.is_schedulable(), "{}", clean.render());
    let window = clean.makespan_window.unwrap();
    assert!(window.contains(3_200));

    let fast = analysis::analyze_phases(&phases, &[], Some(window.lower_cycles - 1));
    assert_rule(&fast.diagnostics, rules::TIME_MAKESPAN_BELOW_FLOOR, Severity::Deny);
    let slow = analysis::analyze_phases(&phases, &[], Some(window.upper_cycles + 1));
    assert_rule(&slow.diagnostics, rules::TIME_MAKESPAN_ABOVE_CEILING, Severity::Deny);
}

// ---------------------------------------------------------------------
// SRAM rules
// ---------------------------------------------------------------------

#[test]
fn sram_peak_and_geometry_over_capacity_fire_on_a_smaller_target_chip() {
    let compiled = compile(&fixtures::clean_diamond());
    let allocation = SramAllocation::allocate(&compiled, chip().spec().sram_geometry());
    // Deploying the same allocation on a 1-byte scratchpad breaks both
    // the layout assumption (Warn) and the live-byte peak (Deny).
    let diagnostics = analysis::check_sram_allocation(&allocation, 1);
    assert_rule(&diagnostics, rules::SRAM_GEOMETRY_OVER_CAPACITY, Severity::Warn);
    assert_rule(&diagnostics, rules::SRAM_PEAK_OVER_CAPACITY, Severity::Deny);
    // On the chip it was built for, the allocation is clean.
    let clean = analysis::check_sram_allocation(&allocation, chip().spec().sram_bytes());
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn sram_op_over_capacity_is_denied() {
    let report = SramCapacityReport::from_parts(1_000, [500, 2_000, 800], 2_000);
    assert!(!report.is_ok());
    let diagnostics = report.diagnostics();
    assert_rule(&diagnostics, rules::SRAM_OP_OVER_CAPACITY, Severity::Deny);
    assert_rule(&diagnostics, rules::SRAM_PEAK_OVER_CAPACITY, Severity::Deny);
}

#[test]
fn sram_tile_over_capacity_is_warned() {
    let compiled = compile(&fixtures::clean_diamond());
    let diagnostics = analysis::check_tile_footprints(&compiled, 1);
    assert_rule(&diagnostics, rules::SRAM_TILE_OVER_CAPACITY, Severity::Warn);
    let clean = analysis::check_tile_footprints(&compiled, chip().spec().sram_bytes());
    assert!(clean.is_empty(), "{clean:?}");
}

// ---------------------------------------------------------------------
// Gating rules
// ---------------------------------------------------------------------

#[test]
fn gate_defaults_are_consistent() {
    let diagnostics = analysis::check_gating_config(&GatingParams::default(), 1.0);
    assert!(diagnostics.is_empty(), "Table 3 defaults flagged: {diagnostics:?}");
}

#[test]
fn gate_bet_below_amortization_is_denied() {
    // A 3-cycle BET cannot amortize a 2-cycle on/off delay under
    // compiler-directed gating (entry cost alone exceeds the interval).
    let params = GatingParams { vu_bet: 3, vu_delay: 2, ..GatingParams::default() };
    let diagnostics = analysis::check_gating_config(&params, 1.0);
    assert_rule(&diagnostics, rules::GATE_BET_BELOW_AMORTIZATION, Severity::Deny);
}

#[test]
fn gate_sram_mode_ordering_is_denied() {
    // Off mode (deeper) with a lower entry threshold than drowsy.
    let params = GatingParams { sram_off_bet: 20, ..GatingParams::default() };
    assert!(params.sram_off_bet < params.sram_sleep_bet);
    let diagnostics = analysis::check_gating_config(&params, 1.0);
    assert_rule(&diagnostics, rules::GATE_SRAM_MODE_ORDERING, Severity::Deny);
}

#[test]
fn gate_leakage_out_of_range_is_denied() {
    let leakage = LeakageRatios { logic_off: 1.5, ..LeakageRatios::default() };
    let params = GatingParams { leakage, ..GatingParams::default() };
    let diagnostics = analysis::check_gating_config(&params, 1.0);
    assert_rule(&diagnostics, rules::GATE_LEAKAGE_OUT_OF_RANGE, Severity::Deny);
}

#[test]
fn gate_setpm_lead_exceeding_dispatch_is_warned() {
    // A 150-cycle HBM wake-up cannot hide behind the 100-cycle dispatch
    // overhead — suspicious but not fatal, so a warning.
    let params = GatingParams { hbm_delay: 150, ..GatingParams::default() };
    let diagnostics = analysis::check_gating_config(&params, 1.0);
    assert_rule(&diagnostics, rules::GATE_SETPM_LEAD_EXCEEDS_DISPATCH, Severity::Warn);
    assert!(
        diagnostics.iter().all(|d| d.severity != Severity::Deny),
        "the lead warning must not escalate to a denial: {diagnostics:?}"
    );
}

#[test]
fn gate_duty_cycle_out_of_range_is_denied() {
    for duty in [0.0, -0.25, 1.5, f64::NAN] {
        let diagnostics = analysis::check_gating_config(&GatingParams::default(), duty);
        assert_rule(&diagnostics, rules::GATE_DUTY_CYCLE_OUT_OF_RANGE, Severity::Deny);
    }
    assert!(analysis::check_gating_config(&GatingParams::default(), 0.5).is_empty());
}

// ---------------------------------------------------------------------
// Power-management policy rules
// ---------------------------------------------------------------------

#[test]
fn policy_scale_out_of_range_is_denied() {
    for scale in [0.0, -0.5, 1.5] {
        let diagnostics = analysis::check_power_policy(&DvfsScaling { scale });
        assert_rule(&diagnostics, rules::POLICY_SCALE_OUT_OF_RANGE, Severity::Deny);
    }
    assert!(analysis::check_power_policy(&DvfsScaling { scale: 0.6 }).is_empty());
}

#[test]
fn policy_residual_out_of_range_is_denied() {
    for residual in [-0.1, 1.5] {
        let diagnostics = analysis::check_power_policy(&ClockGating { residual });
        assert_rule(&diagnostics, rules::POLICY_RESIDUAL_OUT_OF_RANGE, Severity::Deny);
    }
    assert!(analysis::check_power_policy(&ClockGating { residual: 0.55 }).is_empty());
}

#[test]
fn policy_writeback_inconsistent_is_denied() {
    // 4 KiB at 64 B/cycle needs 64 streaming cycles; 10 is understated.
    let understated = WriteBackGating {
        bet: 200,
        delay: 10,
        leak: 0.002,
        writeback_cycles: 10,
        segment_bytes: 4096,
        bytes_per_cycle: 64.0,
    };
    let diagnostics = analysis::check_power_policy(&understated);
    assert_rule(&diagnostics, rules::POLICY_WRITEBACK_INCONSISTENT, Severity::Deny);

    // A BET that cannot amortize the entry cost (2 x delay + write-back).
    let unamortized = WriteBackGating { bet: 84, writeback_cycles: 64, ..understated };
    let diagnostics = analysis::check_power_policy(&unamortized);
    assert_rule(&diagnostics, rules::POLICY_WRITEBACK_INCONSISTENT, Severity::Deny);

    let clean = WriteBackGating::for_segment(&GatingParams::default(), 4096, 64.0);
    assert!(analysis::check_power_policy(&clean).is_empty());
}

#[test]
fn policy_transition_inconsistent_is_denied() {
    // A tile is a fraction of the array: its wake cannot be slower than
    // the full array's.
    let broken = TileGrainRegating { bet: 469, delay: 10, leak: 0.03, tile_delay: 11 };
    let diagnostics = analysis::check_power_policy(&broken);
    assert_rule(&diagnostics, rules::POLICY_TRANSITION_INCONSISTENT, Severity::Deny);

    let clean = TileGrainRegating { tile_delay: 1, ..broken };
    assert!(analysis::check_power_policy(&clean).is_empty());
}

// ---------------------------------------------------------------------
// Serving rules
// ---------------------------------------------------------------------

fn request_graph() -> (npu_models::RequestGraph, u64) {
    let workload = Workload::dlrm(DlrmSize::Small).with_batch(24);
    let server = ServingSimulator::new(NpuGeneration::D, 1, workload);
    let rg = workload
        .try_build_request_graph(server.parallelism(), &[0, 1_000, 2_000])
        .expect("three requests over a 24-sample batch lower cleanly");
    let total: u64 = rg.requests.iter().map(|s| s.samples).sum();
    (rg, total)
}

#[test]
fn serve_release_regression_is_denied() {
    let (mut rg, total) = request_graph();
    assert!(analysis::check_request_graph(&rg, total).is_empty());
    rg.requests[2].release_cycle = rg.requests[1].release_cycle - 1;
    let diagnostics = analysis::check_request_graph(&rg, total);
    assert_rule(&diagnostics, rules::SERVE_RELEASE_REGRESSION, Severity::Deny);
}

#[test]
fn serve_batch_not_conserved_is_denied() {
    let (mut rg, total) = request_graph();
    rg.requests[0].samples += 1;
    let diagnostics = analysis::check_request_graph(&rg, total);
    assert_rule(&diagnostics, rules::SERVE_BATCH_NOT_CONSERVED, Severity::Deny);
}

#[test]
fn serve_span_out_of_range_is_denied() {
    let (mut rg, total) = request_graph();
    rg.requests[0].ops.end = rg.graph.len() + 5;
    let diagnostics = analysis::check_request_graph(&rg, total);
    assert_rule(&diagnostics, rules::SERVE_SPAN_OUT_OF_RANGE, Severity::Deny);

    // A span swallowing the merge op is equally malformed.
    let (mut rg, total) = request_graph();
    rg.requests[2].ops.end = rg.merge_id + 1;
    let diagnostics = analysis::check_request_graph(&rg, total);
    assert_rule(&diagnostics, rules::SERVE_SPAN_OUT_OF_RANGE, Severity::Deny);
}

#[test]
fn serve_record_causality_rules_are_denied_on_corrupted_outcomes() {
    let server =
        ServingSimulator::new(NpuGeneration::D, 1, Workload::dlrm(DlrmSize::Small).with_batch(8));
    let outcome = server.run(&[0, 50_000, 400_000], &BatchPolicy::Static { batch: 1 });
    let clean = outcome.analyze();
    assert!(clean.is_schedulable(), "{}", clean.render());

    // A request recorded as arriving *after* its batch dispatched.
    let mut broken = outcome.clone();
    broken.requests[1].arrival_cycle = broken.requests[1].dispatch_cycle + 1;
    let report = broken.analyze();
    assert_rule(&report.diagnostics, rules::SERVE_DISPATCH_BEFORE_ARRIVAL, Severity::Deny);

    // A batch recorded as completing before it dispatched.
    let mut broken = outcome;
    broken.batches[2].completion_cycle = broken.batches[2].dispatch_cycle - 1;
    let report = broken.analyze();
    assert_rule(&report.diagnostics, rules::SERVE_COMPLETION_BEFORE_DISPATCH, Severity::Deny);
}

// ---------------------------------------------------------------------
// Topo rules (pod fabric / collective lowering)
// ---------------------------------------------------------------------

fn ring4() -> LinkGraph {
    LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 4))
}

#[test]
fn clean_pod_passes_the_topo_rules() {
    let graph = ring4();
    let mut builder = PodBuilder::new(&graph);
    builder.push_unit(0, Resource::Sa, 1_000, 0, vec![]);
    let plan = CollectivePlan::lower(CollectiveKind::AllReduce, 9_000, &graph);
    builder.push_collective(&plan, vec![0]);
    let set = builder.resources();
    let report = analysis::analyze_pod(builder.phases(), &[], &set, &graph, None);
    assert!(report.is_schedulable(), "negative control dirtied: {}", report.render());
    for rule in [
        rules::TOPO_LINK_ENDPOINT_OUT_OF_RANGE,
        rules::TOPO_ROUTE_INCOMPLETE,
        rules::TOPO_CHIP_COUNT_MISMATCH,
        rules::TOPO_COLLECTIVE_LINKS_MISMATCH,
    ] {
        assert_no_rule(&report.diagnostics, rule);
    }
}

#[test]
fn topo_link_endpoint_out_of_range_is_denied() {
    // The `from_links` back door skips validation exactly so this rule
    // has something to catch.
    let graph = LinkGraph::from_links(
        FabricKind::Torus(TorusKind::Torus2D),
        2,
        2,
        vec![Link { src: 0, dst: 7 }, Link { src: 1, dst: 0 }],
    );
    let diagnostics = analysis::check_link_graph(&graph);
    assert_rule(&diagnostics, rules::TOPO_LINK_ENDPOINT_OUT_OF_RANGE, Severity::Deny);
}

#[test]
fn topo_disconnected_fabric_is_denied() {
    // Two chips wired in one direction only: 1 -> 0 has no route.
    let graph = LinkGraph::from_links(FabricKind::FatTree, 2, 2, vec![Link { src: 0, dst: 1 }]);
    let diagnostics = analysis::check_link_graph(&graph);
    assert_rule(&diagnostics, rules::TOPO_ROUTE_INCOMPLETE, Severity::Deny);
    assert_no_rule(&diagnostics, rules::TOPO_LINK_ENDPOINT_OUT_OF_RANGE);
}

#[test]
fn topo_chip_count_mismatch_is_denied() {
    let graph = ring4();
    let fewer_chips = ResourceSet::pod(2, graph.num_links());
    let diagnostics = analysis::check_pod_consistency(&fewer_chips, &graph);
    assert_rule(&diagnostics, rules::TOPO_CHIP_COUNT_MISMATCH, Severity::Deny);
    // Link-count disagreement is the same family: set and fabric no
    // longer describe one machine.
    let fewer_links = ResourceSet::pod(graph.num_chips(), 1);
    let diagnostics = analysis::check_pod_consistency(&fewer_links, &graph);
    assert_rule(&diagnostics, rules::TOPO_CHIP_COUNT_MISMATCH, Severity::Deny);
    let clean = ResourceSet::pod(graph.num_chips(), graph.num_links());
    assert!(analysis::check_pod_consistency(&clean, &graph).is_empty());
}

#[test]
fn topo_collective_links_mismatch_is_denied() {
    let graph = ring4();
    let mut builder = PodBuilder::new(&graph);
    let plan = CollectivePlan::lower(CollectiveKind::AllGather, 8_000, &graph);
    builder.push_collective(&plan, vec![]);
    let set = builder.resources();

    // (a) A link id outside the set's link range.
    let mut phases = builder.phases().to_vec();
    phases[0].collective.as_mut().expect("collective phase").links[0] = set.link_unchecked(99);
    let diagnostics = analysis::check_collective_phases(&phases, &set, &graph);
    assert_rule(&diagnostics, rules::TOPO_COLLECTIVE_LINKS_MISMATCH, Severity::Deny);

    // (b) A link set that is not the fabric's collective ring.
    let mut phases = builder.phases().to_vec();
    phases[0].collective.as_mut().expect("collective phase").links.pop();
    let diagnostics = analysis::check_collective_phases(&phases, &set, &graph);
    assert_rule(&diagnostics, rules::TOPO_COLLECTIVE_LINKS_MISMATCH, Severity::Deny);

    // (c) Per-hop steps that no longer sum to the phase's transfer.
    let mut phases = builder.phases().to_vec();
    phases[0].collective.as_mut().expect("collective phase").step_cycles[0] += 1;
    let diagnostics = analysis::check_collective_phases(&phases, &set, &graph);
    assert_rule(&diagnostics, rules::TOPO_COLLECTIVE_LINKS_MISMATCH, Severity::Deny);

    // The untouched lowering is clean.
    let diagnostics = analysis::check_collective_phases(builder.phases(), &set, &graph);
    assert_no_rule(&diagnostics, rules::TOPO_COLLECTIVE_LINKS_MISMATCH);

    // (d) A collective with no link at all: a 1-chip fabric lowers to an
    // empty link set, so the transfer would be busy on no resource.
    let single = LinkGraph::torus(&PodTopology::for_chips(TorusKind::Torus2D, 1));
    let mut lone = PodBuilder::new(&single);
    lone.push_collective(&CollectivePlan::lower(CollectiveKind::AllReduce, 8_000, &single), vec![]);
    let diagnostics = analysis::check_collective_phases(lone.phases(), &lone.resources(), &single);
    assert_rule(&diagnostics, rules::TOPO_COLLECTIVE_LINKS_MISMATCH, Severity::Deny);
}

#[test]
fn topo_parallelism_infeasible_is_denied() {
    // 98 GB of DLRM tables cannot fit one chip: the evaluation layer
    // denies the deployment instead of fabricating a parallelism config.
    let evaluator = regate::Evaluator::new(NpuGeneration::D);
    let report = evaluator
        .try_evaluate(&Workload::dlrm(DlrmSize::Large), 1)
        .expect_err("infeasible deployment must be denied");
    assert_rule(&report.diagnostics, rules::TOPO_PARALLELISM_INFEASIBLE, Severity::Deny);
}

// ---------------------------------------------------------------------
// Observability rules (trace exports)
// ---------------------------------------------------------------------

/// A single-chip recorder/timeline pair agreeing on one busy interval per
/// injected slice — the clean base the obs.* fixtures then corrupt.
fn trace_fixture(slices: &[(usize, u64, u64)]) -> (TraceRecorder, ResourceTimeline) {
    let set = ResourceSet::single_chip();
    let mut recorder = TraceRecorder::for_set(&set);
    let mut timeline = ResourceTimeline::for_set(&set);
    let sa = ResourceId(0);
    for &(op, start, end) in slices {
        recorder.record_raw_slice(sa, op, start, end);
        timeline.record(sa, start, end);
    }
    timeline.finalize();
    (recorder, timeline)
}

#[test]
fn obs_clean_observed_pod_run_exports_clean() {
    // The real path: a pod pipeline run observed by a recorder agrees
    // with the schedule's own resource timeline on every track.
    let trace = npu_sim::pod::pipeline_trace(&ring4(), &[2_000, 5_000, 3_000, 1_000], 4);
    let engine = trace.engine();
    let mut recorder = TraceRecorder::for_set(&engine.resources());
    let schedule = engine.run_with_scratch_observed(
        &[],
        &mut npu_sim::EngineScratch::default(),
        &mut recorder,
    );
    let diagnostics =
        analysis::check_trace_export(&recorder, &schedule.resource_timeline, schedule.makespan);
    assert!(diagnostics.is_empty(), "negative control dirtied: {diagnostics:?}");
}

#[test]
fn obs_track_overlap_is_denied() {
    // Two slices sharing cycles on one track: a unit cannot run two
    // operators at once. The timeline merges them, so only the trace's
    // per-slice view exposes the collision.
    let (recorder, timeline) = trace_fixture(&[(0, 0, 1_000), (1, 900, 2_000)]);
    let diagnostics = analysis::check_trace_export(&recorder, &timeline, 2_000);
    assert_rule(&diagnostics, rules::OBS_TRACK_OVERLAP, Severity::Deny);
    assert_no_rule(&diagnostics, rules::OBS_EVENT_OUT_OF_WINDOW);
    assert_no_rule(&diagnostics, rules::OBS_TIMELINE_MISMATCH);

    // Abutting slices are legal: end == next start is not an overlap.
    let (recorder, timeline) = trace_fixture(&[(0, 0, 1_000), (1, 1_000, 2_000)]);
    assert!(analysis::check_trace_export(&recorder, &timeline, 2_000).is_empty());
}

#[test]
fn obs_event_out_of_window_is_denied() {
    // A slice past the makespan: the export claims work after the run
    // ended.
    let (recorder, timeline) = trace_fixture(&[(0, 0, 1_000), (1, 1_500, 2_500)]);
    let diagnostics = analysis::check_trace_export(&recorder, &timeline, 2_000);
    assert_rule(&diagnostics, rules::OBS_EVENT_OUT_OF_WINDOW, Severity::Deny);
    assert_no_rule(&diagnostics, rules::OBS_TRACK_OVERLAP);
    assert_no_rule(&diagnostics, rules::OBS_TIMELINE_MISMATCH);
}

#[test]
fn obs_timeline_mismatch_is_denied() {
    // A slice the schedule never recorded: the trace and the resource
    // timeline must agree record for record after merging.
    let (mut recorder, timeline) = trace_fixture(&[(0, 0, 1_000)]);
    recorder.record_raw_slice(ResourceId(0), 1, 1_200, 1_400);
    let diagnostics = analysis::check_trace_export(&recorder, &timeline, 2_000);
    assert_rule(&diagnostics, rules::OBS_TIMELINE_MISMATCH, Severity::Deny);
    assert_no_rule(&diagnostics, rules::OBS_TRACK_OVERLAP);
    assert_no_rule(&diagnostics, rules::OBS_EVENT_OUT_OF_WINDOW);

    // The converse direction — busy intervals the trace missed — is the
    // same rule: drop the slice but keep the timeline record.
    let set = ResourceSet::single_chip();
    let recorder = TraceRecorder::for_set(&set);
    let mut missing = ResourceTimeline::for_set(&set);
    missing.record(ResourceId(0), 0, 1_000);
    missing.finalize();
    let diagnostics = analysis::check_trace_export(&recorder, &missing, 2_000);
    assert_rule(&diagnostics, rules::OBS_TIMELINE_MISMATCH, Severity::Deny);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

#[test]
fn reports_are_byte_identical_across_runs() {
    // Clean deployment pass, twice.
    let compiled = compile(&fixtures::clean_diamond());
    let gating = GatingParams::default();
    let a = analysis::analyze_deployment(&compiled, chip().spec(), Some(&gating));
    let b = analysis::analyze_deployment(&compiled, chip().spec(), Some(&gating));
    assert_eq!(a, b, "clean deployment reports diverged across runs");
    assert_eq!(a.render(), b.render());

    // A dirty report, twice: broken edges, broken gating, measured
    // makespan outside the window — the diagnostic order and every byte
    // of every message must be stable.
    let dirty = || {
        let (ops, mut producers) = parts(&compiled);
        producers[1].push(2);
        producers[3].push(99);
        let graph = CompiledGraph::from_parts("dirty", ops, producers);
        let mut report = analysis::analyze_deployment(
            &graph,
            chip().spec(),
            Some(&GatingParams { vu_bet: 3, vu_delay: 2, ..GatingParams::default() }),
        );
        let phases = vec![sa_phase(1_000, vec![]), sa_phase(2_000, vec![0])];
        report.merge(analysis::analyze_phases(&phases, &[], Some(1)));
        report
    };
    let a = dirty();
    let b = dirty();
    assert!(!a.is_schedulable());
    assert_eq!(a, b, "dirty reports diverged across runs");
    assert_eq!(a.render(), b.render(), "rendered diagnostics diverged across runs");
}
