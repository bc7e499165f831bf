//! End-to-end evaluation engine: workload → compile → simulate → per-design
//! energy, power, performance, and carbon (paper §6).
//!
//! For every design point the engine converts the simulator's activity
//! into *equivalent full-power cycles* per component: busy cycles at the
//! design's rate (with PE-level spatial gating applied to active systolic
//! arrays), plus the component's **real idle intervals** — the gaps of the
//! simulator's merged busy timeline — walked one by one against the
//! design's break-even times, detection windows, and wake-up latencies
//! by the design's per-component [`npu_power::PowerPolicy`] (its
//! [`PolicyConfig`](crate::PolicyConfig)). An interval shorter than
//! the break-even time stays at full power no matter how much aggregate
//! idleness exists, which is exactly the distribution sensitivity of the
//! paper's Figures 9/15. Static energy is the component's leakage power
//! times the equivalent cycles; dynamic energy is identical across designs
//! (the same work is performed).
//!
//! All designs of one trace are priced on one shared timeline: the trace
//! is profiled once (idle-gap lengths, SRAM dead gaps, SA active-period
//! cycles, the hungriest operator's power), and each policy kind only
//! walks that profile.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use npu_arch::{ChipConfig, ComponentKind, NpuGeneration, ParallelismConfig};
use npu_compiler::{CompiledGraph, Compiler};
use npu_models::{ExecutionUnit, Workload};
use npu_power::energy::ChipUsage;
use npu_power::{CarbonModel, EnergyBreakdown, GatingParams, PowerModel};
use npu_sim::{AnalysisReport, Diagnostic, SimulationResult, Simulator};

use crate::designs::Design;
use crate::pe_gating::SaGatingPlan;
use crate::policy::{GapLengths, IdleLeakModel, PolicyKind, SaActiveMode, SramPolicy};

/// Residual power of a PE in the weight-retaining `W_on` mode, as a
/// fraction of its fully-on static power.
const W_ON_RESIDUAL: f64 = 0.10;

/// The components with their own busy timeline, each walked by its own
/// idle-interval policy; their union idleness is the whole-chip idleness.
const TIMELINE_UNITS: [ComponentKind; 5] = [
    ComponentKind::Sa,
    ComponentKind::Vu,
    ComponentKind::Hbm,
    ComponentKind::Ici,
    ComponentKind::Dma,
];

/// Evaluation of one design point for one workload deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignEvaluation {
    /// The design point.
    pub design: Design,
    /// Per-chip energy breakdown for one unit-of-work batch.
    pub energy: EnergyBreakdown,
    /// Execution-time overhead relative to `NoPG` (fraction, e.g. 0.004).
    pub performance_overhead: f64,
    /// Peak per-chip power: the average power of the most power-hungry
    /// operator, in watts.
    pub peak_power_w: f64,
}

/// Full evaluation of one workload deployment across all design points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEvaluation {
    /// The evaluated workload (with its batch size).
    pub workload: Workload,
    /// NPU generation.
    pub generation: NpuGeneration,
    /// Number of chips in the deployment.
    pub num_chips: usize,
    /// The parallelism configuration used.
    pub parallelism: ParallelismConfig,
    /// Per-design evaluations.
    pub designs: BTreeMap<Design, DesignEvaluation>,
    /// Work items produced by one execution of the graph (whole deployment).
    pub work_items: f64,
    /// The underlying simulation (per-operator activity).
    pub simulation: SimulationResult,
}

impl WorkloadEvaluation {
    /// Evaluation of one design point.
    ///
    /// # Panics
    ///
    /// Panics if the design was not evaluated (all designs always are).
    #[must_use]
    pub fn design(&self, design: Design) -> &DesignEvaluation {
        self.designs.get(&design).expect("all designs are evaluated")
    }

    /// Busy-time energy savings of a design relative to `NoPG`.
    #[must_use]
    pub fn energy_savings(&self, design: Design) -> f64 {
        let base = self.design(Design::NoPg).energy.total_j();
        if base == 0.0 {
            return 0.0;
        }
        1.0 - self.design(design).energy.total_j() / base
    }

    /// Energy per unit of work (Joule per iteration / token / request /
    /// image) for the whole deployment.
    #[must_use]
    pub fn energy_per_work(&self, design: Design) -> f64 {
        if self.work_items == 0.0 {
            return 0.0;
        }
        self.design(design).energy.total_j() * self.num_chips as f64 / self.work_items
    }

    /// Average per-chip power while busy, in watts.
    #[must_use]
    pub fn average_power_w(&self, design: Design) -> f64 {
        self.design(design).energy.average_power_w()
    }

    /// Peak per-chip power, in watts.
    #[must_use]
    pub fn peak_power_w(&self, design: Design) -> f64 {
        self.design(design).peak_power_w
    }

    /// Execution-time overhead of a design relative to `NoPG`.
    #[must_use]
    pub fn performance_overhead(&self, design: Design) -> f64 {
        self.design(design).performance_overhead
    }

    /// Operational-carbon reduction of a design relative to `NoPG`,
    /// including the idle-time leakage (the Figure 24 metric).
    #[must_use]
    pub fn operational_carbon_reduction(&self, design: Design) -> f64 {
        let carbon = CarbonModel::default();
        let base = self.design(Design::NoPg).energy.facility_j();
        let gated = self.design(design).energy.facility_j();
        carbon.operational_reduction(base, gated)
    }

    /// Per-component energy-savings breakdown of one design (fraction of the
    /// `NoPG` total energy saved in each component) — the stacking of
    /// Figure 17.
    #[must_use]
    pub fn savings_breakdown(&self, design: Design) -> BTreeMap<ComponentKind, f64> {
        let base_total = self.design(Design::NoPg).energy.total_j();
        let mut out = BTreeMap::new();
        if base_total == 0.0 {
            return out;
        }
        for kind in ComponentKind::ALL {
            let before = self.design(Design::NoPg).energy.component(kind).total_j();
            let after = self.design(design).energy.component(kind).total_j();
            out.insert(kind, (before - after) / base_total);
        }
        out
    }
}

/// Evaluation of one power-management policy for one workload deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvaluation {
    /// The evaluated policy.
    pub kind: PolicyKind,
    /// The policy's table label ([`PolicyKind::label`]).
    pub label: String,
    /// Per-chip energy breakdown for the simulated trace.
    pub energy: EnergyBreakdown,
    /// Execution-time overhead relative to `NoPG` (fraction).
    pub performance_overhead: f64,
    /// Peak per-chip power, in watts.
    pub peak_power_w: f64,
    /// Busy-time energy savings relative to `NoPG` on the same trace.
    pub savings: f64,
}

/// A set of power-management policies evaluated on one identical
/// timeline (the policy × workload × load matrix rows for one cell of
/// the workload × load plane).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySetEvaluation {
    /// Total `NoPG` energy of the trace, in joules (the savings
    /// denominator shared by every row).
    pub baseline_total_j: f64,
    /// One evaluation per requested policy, in request order.
    pub rows: Vec<PolicyEvaluation>,
}

impl PolicySetEvaluation {
    /// The evaluation of one policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy was not part of the evaluated set.
    #[must_use]
    pub fn row(&self, kind: PolicyKind) -> &PolicyEvaluation {
        self.rows.iter().find(|row| row.kind == kind).expect("policy was part of the evaluated set")
    }
}

/// The evaluation engine for one NPU generation.
#[derive(Debug, Clone)]
pub struct Evaluator {
    generation: NpuGeneration,
    gating: GatingParams,
}

impl Evaluator {
    /// Creates an evaluator with the default (Table 3) gating parameters.
    #[must_use]
    pub fn new(generation: NpuGeneration) -> Self {
        Evaluator { generation, gating: GatingParams::default() }
    }

    /// Creates an evaluator with custom gating parameters (sensitivity
    /// analysis, §6.5).
    #[must_use]
    pub fn with_gating(generation: NpuGeneration, gating: GatingParams) -> Self {
        Evaluator { generation, gating }
    }

    /// The gating parameters in use.
    #[must_use]
    pub fn gating(&self) -> &GatingParams {
        &self.gating
    }

    /// The targeted NPU generation.
    #[must_use]
    pub fn generation(&self) -> NpuGeneration {
        self.generation
    }

    /// Evaluates a workload on `num_chips` chips across every design point.
    ///
    /// # Panics
    ///
    /// Panics if no valid parallelism configuration exists for the
    /// requested deployment (use [`Self::try_evaluate`] to handle the
    /// denial programmatically). The engine used to silently fabricate a
    /// `ParallelismConfig::new(num_chips, 1, 1)` fallback here, which
    /// priced a deployment whose weights provably do not fit in HBM.
    #[must_use]
    pub fn evaluate(&self, workload: &Workload, num_chips: usize) -> WorkloadEvaluation {
        match self.try_evaluate(workload, num_chips) {
            Ok(eval) => eval,
            Err(report) => {
                panic!(
                    "infeasible deployment of {workload} on {num_chips} chip(s):\n{}",
                    report.render()
                )
            }
        }
    }

    /// Evaluates a workload on `num_chips` chips across every design
    /// point, or reports why the deployment is infeasible.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisReport`] carrying a
    /// `topo.parallelism-infeasible` denial when no valid parallelism
    /// configuration exists for the requested (workload, chip count) —
    /// e.g. model weights that cannot fit the deployment's aggregate HBM.
    pub fn try_evaluate(
        &self,
        workload: &Workload,
        num_chips: usize,
    ) -> Result<WorkloadEvaluation, AnalysisReport> {
        let chip = ChipConfig::new(self.generation, num_chips);
        let Some(parallelism) = workload.default_parallelism(chip.spec(), num_chips) else {
            let mut report = AnalysisReport::new();
            report.extend([Diagnostic::deny(
                npu_sim::analysis::rules::TOPO_PARALLELISM_INFEASIBLE,
                None,
                format!(
                    "no valid parallelism configuration for {workload} on {num_chips} chip(s): \
                     the workload's memory demand exceeds the deployment's aggregate HBM under \
                     every legal (data, tensor, pipeline) split"
                ),
            )]);
            return Err(report);
        };
        let graph = workload.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        Ok(self.evaluate_compiled(
            workload,
            num_chips,
            parallelism,
            &compiled,
            simulation,
            npu_power::NPU_DUTY_CYCLE,
        ))
    }

    /// Evaluates every design point over a *pre-built* compiled graph and
    /// simulation — the entry point for callers that schedule their own
    /// traces (the serving simulator's arrival-driven runs, where the
    /// timeline already contains queueing and inter-request gaps).
    ///
    /// `duty_cycle` attributes the out-of-duty-cycle idle leakage the
    /// simulated window cannot see: the standard single-batch path passes
    /// the paper's fleet average ([`npu_power::NPU_DUTY_CYCLE`]), while a
    /// serving trace passes `1.0` because its inter-request idleness is
    /// *inside* the window and priced by the interval walk — charging the
    /// scalar term on top would double-count it. `workload.work_items()`
    /// must describe the whole simulated trace (pass
    /// `workload.with_batch(total_samples)` when the trace spans several
    /// batches).
    ///
    /// # Panics
    ///
    /// Panics if the simulation was produced on a different chip
    /// deployment than this evaluator's `(generation, num_chips)` —
    /// pricing a trace with another chip's power model would silently mix
    /// two hardware configurations in one report.
    #[must_use]
    pub fn evaluate_compiled(
        &self,
        workload: &Workload,
        num_chips: usize,
        parallelism: ParallelismConfig,
        compiled: &CompiledGraph,
        simulation: SimulationResult,
        duty_cycle: f64,
    ) -> WorkloadEvaluation {
        let profile = self.profile(num_chips, compiled, &simulation, duty_cycle);
        let designs = Design::ALL
            .into_iter()
            .map(|design| {
                let (energy, performance_overhead, peak_power_w) =
                    self.price(PolicyKind::Preset(design), &profile);
                (design, DesignEvaluation { design, energy, performance_overhead, peak_power_w })
            })
            .collect();
        WorkloadEvaluation {
            workload: *workload,
            generation: self.generation,
            num_chips,
            parallelism,
            designs,
            work_items: workload.work_items(),
            simulation,
        }
    }

    /// Evaluates a *set* of power-management policies over one pre-built
    /// compiled graph and simulation — every policy prices the identical
    /// timeline, so the rows are directly comparable (the policy ×
    /// workload × load matrix). Presets and extended kinds alike go
    /// through the pricing path of [`Self::evaluate_compiled`], so a
    /// preset row is bit-identical to its design row.
    ///
    /// `duty_cycle` has the same semantics as in
    /// [`Self::evaluate_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the simulation was produced on a different chip
    /// deployment than this evaluator's `(generation, num_chips)`.
    #[must_use]
    pub fn evaluate_policies(
        &self,
        num_chips: usize,
        compiled: &CompiledGraph,
        simulation: &SimulationResult,
        duty_cycle: f64,
        kinds: &[PolicyKind],
    ) -> PolicySetEvaluation {
        let profile = self.profile(num_chips, compiled, simulation, duty_cycle);
        let baseline_total_j = profile.baseline.total_j();
        let rows = kinds
            .iter()
            .map(|&kind| {
                let (energy, performance_overhead, peak_power_w) = self.price(kind, &profile);
                let savings = if baseline_total_j == 0.0 {
                    0.0
                } else {
                    1.0 - energy.total_j() / baseline_total_j
                };
                PolicyEvaluation {
                    kind,
                    label: kind.label(),
                    energy,
                    performance_overhead,
                    peak_power_w,
                    savings,
                }
            })
            .collect();
        PolicySetEvaluation { baseline_total_j, rows }
    }

    /// Extracts the pricing profile of one simulated trace, shared by
    /// every kind priced on it.
    ///
    /// # Panics
    ///
    /// Panics if the simulation was produced on a different chip
    /// deployment than this evaluator's `(generation, num_chips)`.
    fn profile<'a>(
        &self,
        num_chips: usize,
        compiled: &CompiledGraph,
        sim: &'a SimulationResult,
        duty_cycle: f64,
    ) -> PricingProfile<'a> {
        let chip = ChipConfig::new(self.generation, num_chips);
        assert_eq!(
            *sim.chip(),
            chip,
            "simulation ran on a different chip deployment than the evaluator targets"
        );
        let model = PowerModel::new(chip.spec());
        let spec = model.spec();
        let usage = Self::chip_usage(compiled, sim);
        let baseline = EnergyBreakdown::no_power_gating_with_duty(&model, &usage, duty_cycle);
        let total_cycles = sim.total_cycles();
        let timeline = sim.busy_timeline();
        let units = TIMELINE_UNITS.map(|kind| UnitProfile {
            kind,
            busy_cycles: timeline.busy_cycles(kind),
            idle: GapLengths::of(&timeline.idle_intervals(kind, total_cycles), total_cycles),
        });

        // Active-period SA cycles per mode, summed in operator order (an
        // operator that never touches the array adds nothing).
        let sa_width = spec.sa_width;
        let leak = self.gating.leakage.logic_off;
        let mut sa_active = SaActiveCycles::default();
        for (op, timing) in compiled.anchors().zip(sim.timings()) {
            let active = timing.sa_active_cycles as f64;
            if active == 0.0 {
                continue;
            }
            // Component-level gating cannot exploit spatial
            // underutilization: the whole array burns full static power
            // while any PE computes.
            sa_active.full_power += active;
            // PE-level gating: rows/columns holding padded zero weights
            // are off, and the diagonal wavefront keeps PEs in W_on
            // outside the input wave.
            let (m, k, n) = op.op.matmul_dims().unwrap_or((1, 1, 1));
            let gated_frac = SaGatingPlan::matmul_gated_pe_cycle_fraction(
                sa_width,
                k as usize,
                n as usize,
                m.min(sa_width as u64 * 32),
                W_ON_RESIDUAL,
            );
            sa_active.spatial += active * ((1.0 - gated_frac) + gated_frac * leak);
            sa_active.utilization += active * timing.sa_spatial_utilization;
        }

        let segments = sim.segment_timeline();
        let total_segments = segments.num_segments();
        let sram = (total_segments > 0 && total_cycles > 0).then(|| SramProfile {
            bands: segments
                .bands()
                .iter()
                .map(|band| SramBand {
                    live_cycles: band.live_cycles(),
                    num_segments: band.num_segments,
                    dead: GapLengths::of(&segments.dead_intervals_of(band), total_cycles),
                })
                .collect(),
            never_live: total_segments - segments.ever_live_segments(),
            total_segments,
        });

        let max_op_dynamic_w = sim
            .timings()
            .iter()
            .zip(sim.schedule())
            .filter_map(|(t, s)| {
                let secs = s.span_cycles() as f64 / spec.frequency_hz();
                (secs > 0.0).then(|| {
                    let dynamic_j = model.sa_energy_per_flop() * t.flops
                        + model.hbm_energy_per_byte() * t.hbm_bytes as f64
                        + model.ici_energy_per_byte() * t.ici_bytes as f64
                        + model.sram_energy_per_byte() * 3.0 * t.hbm_bytes as f64
                        + model.other_dynamic_power_w() * secs;
                    dynamic_j / secs
                })
            })
            .reduce(f64::max);

        PricingProfile {
            model,
            baseline,
            total_cycles,
            units,
            sa_active,
            sram,
            max_op_dynamic_w,
            chip_idle: OnceCell::new(),
            sim,
        }
    }

    /// Builds the chip-activity counters for the dynamic-energy model.
    fn chip_usage(compiled: &CompiledGraph, sim: &SimulationResult) -> ChipUsage {
        let mut sa_flops = 0.0;
        let mut vu_flops = 0.0;
        for op in compiled.anchors() {
            match op.unit {
                ExecutionUnit::Sa => {
                    sa_flops += op.op.flops();
                    vu_flops += op.fused_vu_flops;
                }
                _ => vu_flops += op.op.flops() + op.fused_vu_flops,
            }
        }
        let hbm_bytes: f64 = sim.timings().iter().map(|t| t.hbm_bytes as f64).sum();
        let ici_bytes: f64 = sim.timings().iter().map(|t| t.ici_bytes as f64).sum();
        ChipUsage {
            busy_seconds: sim.total_seconds(),
            sa_flops,
            vu_flops,
            hbm_bytes,
            ici_bytes,
            sram_bytes: 3.0 * hbm_bytes,
            dma_bytes: hbm_bytes + ici_bytes,
        }
    }

    /// Prices one policy over a profiled trace and returns
    /// `(energy, performance_overhead, peak_power_w)`: the kind expands
    /// into its [`PolicyConfig`](crate::PolicyConfig), whose
    /// per-component policies walk the trace's real idle intervals.
    /// `NoPG` is the baseline itself.
    fn price(&self, kind: PolicyKind, profile: &PricingProfile<'_>) -> (EnergyBreakdown, f64, f64) {
        let PricingProfile { model, baseline, total_cycles, .. } = profile;
        let total_cycles = *total_cycles;
        if kind == PolicyKind::Preset(Design::NoPg) {
            return (baseline.clone(), 0.0, profile.peak_power(baseline));
        }
        let config = kind.config(&self.gating, model.spec());
        let cycle_s = model.spec().cycle_seconds();

        // Equivalent full-power cycles per component: busy time at its
        // policy-specific rate, plus the component's *real* idle intervals
        // walked against the policy's break-even times and wake-up
        // latencies.
        let mut equivalent: BTreeMap<ComponentKind, f64> = BTreeMap::new();
        let mut overhead_cycles: f64 = 0.0;

        // --- Systolic arrays: spatially gated while active (per-operator
        //     shapes); vector units, HBM / ICI controllers and the DMA
        //     engine: full power while busy. Every component's real idle
        //     gaps are walked by its policy. ---
        let policies = [&config.sa_idle, &config.vu, &config.hbm, &config.ici, &config.dma];
        for (unit, policy) in profile.units.iter().zip(policies) {
            let busy = if unit.kind == ComponentKind::Sa {
                profile.sa_active.cycles(config.sa_active)
            } else {
                unit.busy_cycles as f64
            };
            let walk = unit.idle.walk(policy.as_ref());
            equivalent.insert(unit.kind, busy + walk.equivalent_cycles);
            overhead_cycles += walk.wake_stall_cycles;
        }

        // --- SRAM: per-segment gating on the event timeline (§4.3). A
        //     4 KiB segment burns full static power while its data is
        //     live; its *dead* intervals are walked by the SRAM policy
        //     exactly like any other component's idle gaps. The presets:
        //     ReGate-Base/-HW put dead segments into the data-retaining
        //     sleep mode via hardware idle detection; ReGate-Full powers
        //     them off with compiler-issued `setpm` (the allocator knows
        //     every lifetime statically); Ideal leaks nothing while dead.
        //     Retention wake-ups are not charged to the critical path:
        //     the drowsy wake is a few cycles hidden under the access
        //     pipeline, and `setpm on` is issued ahead of the next use.
        equivalent.insert(ComponentKind::Sram, profile.sram_equivalent_cycles(&config.sram));

        // --- Peripheral logic: per-component gating can never touch it,
        //     but a chip-level policy walks the *whole-chip* idle
        //     intervals (every tracked component simultaneously quiet —
        //     the pipeline-stage bubbles of multi-chip serving) and
        //     recovers the uncore static power inside them. ---
        let other_eq = match &config.whole_chip {
            None => total_cycles as f64,
            Some(policy) => {
                let gaps = profile.chip_idle();
                let union_idle: u64 = gaps.lens.iter().sum();
                let walk = gaps.walk(policy.as_ref());
                overhead_cycles += walk.wake_stall_cycles;
                (total_cycles - union_idle) as f64 + walk.equivalent_cycles
            }
        };
        equivalent.insert(ComponentKind::Other, other_eq);

        let performance_overhead =
            if total_cycles == 0 { 0.0 } else { overhead_cycles / total_cycles as f64 };

        let equivalent_seconds: BTreeMap<ComponentKind, f64> =
            equivalent.into_iter().map(|(k, cycles)| (k, cycles * cycle_s)).collect();
        // Idle (out-of-duty-cycle) leakage under the policy's attribution
        // model.
        let idle_static_j = match config.idle_leak {
            IdleLeakModel::Baseline => baseline.idle_static_j,
            IdleLeakModel::Zero => 0.0,
            IdleLeakModel::PerComponent { logic, sram } => {
                baseline.idle_static_j * self.idle_off_ratio(logic, sram, model)
            }
        };
        let energy = EnergyBreakdown::gated(
            baseline,
            model,
            &equivalent_seconds,
            overhead_cycles * cycle_s,
            idle_static_j,
        );

        let peak_power_w = profile.peak_power(&energy);
        (energy, performance_overhead, peak_power_w)
    }

    /// Chip-wide residual-leakage ratio while the chip sits outside its
    /// duty cycle: each component's share of the static power weighted by
    /// its *own* off-state residual — the SRAM by `sram`, everything else
    /// by `logic`. (The previous model took `logic_off.max(sram_off)` for
    /// the whole chip, which let the leakiest component's ratio bleed
    /// into every other component's share.)
    fn idle_off_ratio(&self, logic: f64, sram: f64, model: &PowerModel) -> f64 {
        let total = model.total_static_power_w();
        if total == 0.0 {
            return logic;
        }
        ComponentKind::ALL
            .iter()
            .map(|&kind| {
                let ratio = if kind == ComponentKind::Sram { sram } else { logic };
                model.static_power_w(kind) / total * ratio
            })
            .sum()
    }
}

/// Everything the pricing of one simulated trace needs, extracted once by
/// [`Evaluator::profile`] so that pricing a kind runs no per-operator
/// loop and builds no gap list: it only walks the stored gap lengths,
/// through the same [`npu_power::PowerPolicy::walk_intervals`] calls with
/// the same inputs in the same order as a walk over the timeline itself.
struct PricingProfile<'a> {
    model: PowerModel,
    /// The `NoPG` breakdown of the trace.
    baseline: EnergyBreakdown,
    total_cycles: u64,
    /// One entry per [`TIMELINE_UNITS`] component, in that order.
    units: [UnitProfile; 5],
    sa_active: SaActiveCycles,
    /// `None` when the trace has no SRAM segments or no cycles.
    sram: Option<SramProfile>,
    /// Largest average dynamic power of one operator; `None` when no
    /// operator takes time.
    max_op_dynamic_w: Option<f64>,
    /// Whole-chip idle gaps, extracted on first use by a kind with a
    /// whole-chip policy.
    chip_idle: OnceCell<GapLengths>,
    sim: &'a SimulationResult,
}

/// Busy cycles and idle gaps of one timeline unit.
struct UnitProfile {
    kind: ComponentKind,
    busy_cycles: u64,
    idle: GapLengths,
}

/// Equivalent full-power SA cycles of the trace's *active* periods under
/// each [`SaActiveMode`] (the idle periods between active bursts are
/// walked separately on the timeline).
#[derive(Default)]
struct SaActiveCycles {
    full_power: f64,
    spatial: f64,
    utilization: f64,
}

impl SaActiveCycles {
    fn cycles(&self, mode: SaActiveMode) -> f64 {
        match mode {
            SaActiveMode::FullPower => self.full_power,
            SaActiveMode::Spatial => self.spatial,
            SaActiveMode::Utilization => self.utilization,
        }
    }
}

/// The scratchpad's segments grouped into bands of identical lifetimes.
struct SramProfile {
    bands: Vec<SramBand>,
    /// Segments never touched by any buffer: one dead interval spanning
    /// the whole execution each.
    never_live: usize,
    total_segments: usize,
}

struct SramBand {
    live_cycles: u64,
    num_segments: usize,
    dead: GapLengths,
}

impl PricingProfile<'_> {
    /// Whole-chip idle gaps: every timeline unit quiet at once.
    fn chip_idle(&self) -> &GapLengths {
        self.chip_idle.get_or_init(|| {
            let gaps =
                self.sim.busy_timeline().union_idle_intervals(&TIMELINE_UNITS, self.total_cycles);
            GapLengths::of(&gaps, self.total_cycles)
        })
    }

    /// Equivalent full-power SRAM cycles of one policy, averaged over the
    /// scratchpad's segments: each segment is fully powered during its
    /// live intervals and its dead intervals are walked by the SRAM
    /// policy. Never-live segments share one whole-execution dead
    /// interval, so their cost is computed once and weighted by their
    /// count. Dead intervals never stall the pipeline (restores are
    /// hidden or scheduled ahead), so only the equivalent cycles matter.
    fn sram_equivalent_cycles(&self, policy: &SramPolicy) -> f64 {
        let (Some(sram), SramPolicy::Walk(walk)) = (&self.sram, policy) else {
            return self.total_cycles as f64;
        };
        let mut eq_sum = 0.0f64;
        for band in &sram.bands {
            let per_segment =
                band.live_cycles as f64 + band.dead.walk(walk.as_ref()).equivalent_cycles;
            eq_sum += per_segment * band.num_segments as f64;
        }
        if sram.never_live > 0 {
            // One gap from cycle 0 to the makespan: trailing.
            let dead = walk.walk_intervals(&[self.total_cycles], true);
            eq_sum += dead.equivalent_cycles * sram.never_live as f64;
        }
        eq_sum / sram.total_segments as f64
    }

    /// Peak per-chip power: the average power of the most power-hungry
    /// operator under the design's static-power scaling.
    fn peak_power(&self, energy: &EnergyBreakdown) -> f64 {
        let spec = self.model.spec();
        let cap = spec.tdp_watts * 1.2;
        // Static power scales with the design's overall static reduction.
        let design_static_w = if self.total_cycles == 0 {
            self.model.total_static_power_w()
        } else {
            energy.static_j() / (self.total_cycles as f64 * spec.cycle_seconds())
        };
        // `min(x + static, cap)` is monotone in `x` under round-to-nearest,
        // so the hungriest operator's dynamic power gives exactly the
        // largest per-operator capped power.
        let peak =
            self.max_op_dynamic_w.map_or(0.0, |dynamic_w| (dynamic_w + design_static_w).min(cap));
        // Operator spans on the global clock include scheduling stalls,
        // which can dilute every per-operator average below the whole-run
        // average; the peak can never physically undercut it.
        peak.max(energy.average_power_w().min(cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_models::{DiffusionModel, DlrmSize, LlamaModel, LlmPhase};

    fn quick_diffusion() -> Workload {
        let mut wl = Workload::diffusion(DiffusionModel::DitXl);
        if let Workload::Diffusion(ref mut cfg) = wl {
            cfg.steps = 2;
        }
        wl
    }

    #[test]
    fn savings_are_ordered_across_designs() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        for workload in [
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill),
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode),
            Workload::dlrm(DlrmSize::Small),
            quick_diffusion(),
        ] {
            let eval = evaluator.evaluate(&workload, 8);
            let base = eval.energy_savings(Design::ReGateBase);
            let hw = eval.energy_savings(Design::ReGateHw);
            let full = eval.energy_savings(Design::ReGateFull);
            let ideal = eval.energy_savings(Design::Ideal);
            assert!(base >= -1e-9, "{workload}: Base savings {base}");
            assert!(hw >= base - 1e-9, "{workload}: HW {hw} < Base {base}");
            assert!(full >= hw - 1e-9, "{workload}: Full {full} < HW {hw}");
            assert!(ideal >= full - 1e-9, "{workload}: Ideal {ideal} < Full {full}");
            assert!(ideal < 0.8, "{workload}: Ideal saves at most the static share, got {ideal}");
        }
    }

    #[test]
    fn full_savings_magnitudes_match_paper_ranges() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        // LLM decode: paper reports 16%-20% savings.
        let decode = evaluator.evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        let s = decode.energy_savings(Design::ReGateFull);
        assert!((0.08..0.45).contains(&s), "decode savings {s}");
        // DLRM: paper reports ~33% savings.
        let dlrm = evaluator.evaluate(&Workload::dlrm(DlrmSize::Small), 8);
        let s = dlrm.energy_savings(Design::ReGateFull);
        assert!((0.15..0.60).contains(&s), "DLRM savings {s}");
        // Prefill (compute-bound): smaller savings.
        let prefill =
            evaluator.evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill), 1);
        let sp = prefill.energy_savings(Design::ReGateFull);
        assert!((0.03..0.30).contains(&sp), "prefill savings {sp}");
        assert!(s > sp, "DLRM should save more than prefill");
    }

    #[test]
    fn performance_overhead_bounds() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        for workload in [
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Prefill),
            Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode),
            Workload::dlrm(DlrmSize::Medium),
        ] {
            let eval = evaluator.evaluate(&workload, 8);
            assert_eq!(eval.performance_overhead(Design::NoPg), 0.0);
            assert_eq!(eval.performance_overhead(Design::Ideal), 0.0);
            let base = eval.performance_overhead(Design::ReGateBase);
            let hw = eval.performance_overhead(Design::ReGateHw);
            let full = eval.performance_overhead(Design::ReGateFull);
            assert!(base < 0.06, "{workload}: Base overhead {base}");
            assert!(hw <= base + 1e-12, "{workload}: HW {hw} > Base {base}");
            assert!(full <= hw + 1e-12, "{workload}: Full {full} > HW {hw}");
            assert!(full < 0.005, "{workload}: Full overhead {full} above 0.5%");
        }
    }

    #[test]
    fn average_power_drops_with_gating() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let eval = evaluator.evaluate(&Workload::dlrm(DlrmSize::Large), 8);
        assert!(eval.average_power_w(Design::ReGateFull) < eval.average_power_w(Design::NoPg));
        assert!(eval.peak_power_w(Design::ReGateFull) <= eval.peak_power_w(Design::NoPg) + 1e-9);
        assert!(eval.peak_power_w(Design::NoPg) >= eval.average_power_w(Design::NoPg));
    }

    #[test]
    fn carbon_reduction_exceeds_energy_savings() {
        // Figure 24: operational carbon reduction (which includes the idle
        // portion) is much larger than the busy-time energy savings.
        let evaluator = Evaluator::new(NpuGeneration::D);
        let eval = evaluator.evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        let carbon = eval.operational_carbon_reduction(Design::ReGateFull);
        let energy = eval.energy_savings(Design::ReGateFull);
        assert!(carbon > energy, "carbon {carbon} <= energy {energy}");
        assert!(carbon > 0.25, "carbon reduction {carbon}");
    }

    #[test]
    fn savings_breakdown_sums_to_total_savings() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let eval = evaluator.evaluate(&Workload::dlrm(DlrmSize::Small), 8);
        for design in Design::GATED {
            let parts: f64 = eval.savings_breakdown(design).values().sum();
            let total = eval.energy_savings(design);
            // The breakdown ignores the overhead-time static energy, so it
            // can differ slightly; they must agree within a percent or two.
            assert!((parts - total).abs() < 0.02, "{design}: parts {parts} vs total {total}");
        }
    }

    #[test]
    fn sensitivity_to_leakage_and_delay() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let default_eval = Evaluator::new(NpuGeneration::D).evaluate(&wl, 1);
        // Leakier gated state -> smaller savings.
        let leaky = GatingParams::default().with_leakage(npu_power::LeakageRatios {
            logic_off: 0.6,
            sram_sleep: 0.8,
            sram_off: 0.4,
        });
        let leaky_eval = Evaluator::with_gating(NpuGeneration::D, leaky).evaluate(&wl, 1);
        assert!(
            leaky_eval.energy_savings(Design::ReGateFull)
                < default_eval.energy_savings(Design::ReGateFull)
        );
        // Longer delays -> more overhead, fewer savings (never more).
        let slow = GatingParams::default().with_delay_scale(4.0);
        let slow_eval = Evaluator::with_gating(NpuGeneration::D, slow).evaluate(&wl, 1);
        assert!(
            slow_eval.energy_savings(Design::ReGateFull)
                <= default_eval.energy_savings(Design::ReGateFull) + 1e-9
        );
        assert!(
            slow_eval.performance_overhead(Design::ReGateBase)
                >= default_eval.performance_overhead(Design::ReGateBase)
        );
    }

    #[test]
    fn idle_leakage_weights_each_component_by_its_own_off_ratio() {
        // Asymmetric corner: the SRAM's off-state is *leakier* than the
        // gated logic. The old `logic_off.max(sram_off)` model let that
        // single ratio bleed into every component's out-of-duty-cycle
        // leakage; the weighted model charges only the SRAM's actual
        // static-power share at the SRAM's ratio.
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let ratios = npu_power::LeakageRatios { logic_off: 0.05, sram_sleep: 0.3, sram_off: 0.5 };
        let gating = GatingParams::default().with_leakage(ratios);
        let eval = Evaluator::with_gating(NpuGeneration::D, gating).evaluate(&wl, 1);
        let base_idle = eval.design(Design::NoPg).energy.idle_static_j;
        let full_idle = eval.design(Design::ReGateFull).energy.idle_static_j;
        assert!(base_idle > 0.0);
        let ratio = full_idle / base_idle;
        assert!(ratio < 0.5 - 1e-6, "ratio {ratio} inherited the leakiest component's 0.5");
        assert!(ratio > 0.05 + 1e-6, "ratio {ratio} must include the SRAM's leakier share");
        // It matches the static-power-weighted expectation exactly.
        let spec = npu_arch::NpuSpec::generation(NpuGeneration::D);
        let model = PowerModel::new(&spec);
        let total = model.total_static_power_w();
        let expected: f64 = ComponentKind::ALL
            .iter()
            .map(|&k| {
                let r = if k == ComponentKind::Sram { 0.5 } else { 0.05 };
                model.static_power_w(k) / total * r
            })
            .sum();
        assert!((ratio - expected).abs() < 1e-9, "ratio {ratio} vs expected {expected}");
        // The retaining designs keep dead segments in sleep mode instead.
        let hw_idle = eval.design(Design::ReGateHw).energy.idle_static_j;
        assert!(hw_idle < full_idle, "sleep (0.3) leaks less than off (0.5) in this corner");
    }

    #[test]
    fn sram_equivalent_cycles_come_from_the_segment_walk() {
        // The per-segment walk bounds: never below the Ideal floor (live
        // cycles only), never above full power, ordered across designs.
        let evaluator = Evaluator::new(NpuGeneration::D);
        let eval = evaluator.evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1);
        let sim = &eval.simulation;
        let total = sim.total_cycles() as f64;
        let segments = sim.segment_timeline();
        assert!(segments.ever_live_segments() > 0);
        let spec = npu_arch::NpuSpec::generation(NpuGeneration::D);
        let model = PowerModel::new(&spec);
        let sram_w = model.static_power_w(ComponentKind::Sram);
        let cycle_s = spec.cycle_seconds();
        let sram_eq = |design: Design| {
            eval.design(design).energy.component(ComponentKind::Sram).static_j / (sram_w * cycle_s)
        };
        let nopg = sram_eq(Design::NoPg);
        assert!((nopg - total).abs() / total < 1e-9, "NoPG keeps the whole SRAM on");
        let base = sram_eq(Design::ReGateBase);
        let full = sram_eq(Design::ReGateFull);
        let ideal = sram_eq(Design::Ideal);
        assert!(ideal <= full && full <= base && base <= nopg * (1.0 + 1e-9));
        // Decode leaves most of the scratchpad dead: Full must recover
        // the overwhelming majority of the SRAM's static energy.
        assert!(full < 0.2 * total, "Full SRAM equivalent cycles {full} vs total {total}");
    }

    #[test]
    fn evaluate_compiled_reproduces_the_standard_path() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let standard = evaluator.evaluate(&wl, 1);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let parallelism = wl
            .default_parallelism(chip.spec(), 1)
            .unwrap_or_else(|| ParallelismConfig::new(1, 1, 1));
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        let via_compiled = evaluator.evaluate_compiled(
            &wl,
            1,
            parallelism,
            &compiled,
            simulation.clone(),
            npu_power::NPU_DUTY_CYCLE,
        );
        assert_eq!(standard, via_compiled, "the refactored path must be the identity");
        // With duty cycle 1.0 the scalar out-of-window idle term vanishes
        // while the busy-time energy is untouched — the serving-layer
        // reconciliation: measured gaps replace the assumed scalar.
        let served = evaluator.evaluate_compiled(&wl, 1, parallelism, &compiled, simulation, 1.0);
        for design in Design::ALL {
            assert_eq!(served.design(design).energy.idle_static_j, 0.0, "{design}");
            assert!(
                (served.design(design).energy.total_j() - standard.design(design).energy.total_j())
                    .abs()
                    < 1e-9,
                "{design}: busy-time energy must not depend on the duty cycle"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different chip deployment")]
    fn evaluate_compiled_rejects_a_mismatched_chip() {
        // A trace scheduled on NPU-C priced with NPU-D's power model
        // would silently mix two chips in one report.
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let chip = ChipConfig::new(NpuGeneration::C, 1);
        let parallelism = ParallelismConfig::new(1, 1, 1);
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        let _ = Evaluator::new(NpuGeneration::D).evaluate_compiled(
            &wl,
            1,
            parallelism,
            &compiled,
            simulation,
            1.0,
        );
    }

    #[test]
    fn preset_policies_reproduce_the_design_rows_bit_for_bit() {
        // The five design points are now presets of the generalized
        // policy walk; selecting them through `evaluate_policies` must
        // reproduce the `evaluate_compiled` rows exactly (not just within
        // a tolerance — the golden_table4 net relies on the presets being
        // bit-identical).
        let evaluator = Evaluator::new(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let parallelism = wl
            .default_parallelism(chip.spec(), 1)
            .unwrap_or_else(|| ParallelismConfig::new(1, 1, 1));
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        let designs = evaluator.evaluate_compiled(
            &wl,
            1,
            parallelism,
            &compiled,
            simulation.clone(),
            npu_power::NPU_DUTY_CYCLE,
        );
        let kinds: Vec<PolicyKind> = Design::ALL.iter().map(|&d| PolicyKind::Preset(d)).collect();
        let policies = evaluator.evaluate_policies(
            1,
            &compiled,
            &simulation,
            npu_power::NPU_DUTY_CYCLE,
            &kinds,
        );
        for design in Design::ALL {
            let via_design = designs.design(design);
            let via_policy = policies.row(PolicyKind::Preset(design));
            assert_eq!(via_design.energy, via_policy.energy, "{design}");
            assert_eq!(
                via_design.performance_overhead, via_policy.performance_overhead,
                "{design}"
            );
            assert_eq!(via_design.peak_power_w, via_policy.peak_power_w, "{design}");
            assert_eq!(designs.energy_savings(design), via_policy.savings, "{design}");
        }
    }

    #[test]
    fn extended_policies_price_the_same_timeline_sanely() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let parallelism = wl
            .default_parallelism(chip.spec(), 1)
            .unwrap_or_else(|| ParallelismConfig::new(1, 1, 1));
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        let mut kinds = vec![PolicyKind::Preset(Design::NoPg), PolicyKind::Preset(Design::Ideal)];
        kinds.extend(PolicyKind::EXTENDED);
        let set = evaluator.evaluate_policies(1, &compiled, &simulation, 1.0, &kinds);
        let ideal = set.row(PolicyKind::Preset(Design::Ideal)).savings;
        assert_eq!(set.row(PolicyKind::Preset(Design::NoPg)).savings, 0.0);
        for kind in PolicyKind::EXTENDED {
            let row = set.row(kind);
            // Every extended policy only ever *reduces* idle cost, so the
            // savings sit between the NoPG floor and the Ideal oracle.
            assert!(row.savings > 0.0, "{}: savings {}", row.label, row.savings);
            assert!(row.savings <= ideal + 1e-12, "{}: beats the oracle", row.label);
            assert!(row.performance_overhead >= 0.0, "{}", row.label);
            // Zero-transition policies expose no latency at all.
            if matches!(
                kind,
                PolicyKind::ClockGating { .. }
                    | PolicyKind::Dvfs { .. }
                    | PolicyKind::DrowsyEverywhere
            ) {
                assert_eq!(row.performance_overhead, 0.0, "{}", row.label);
            }
        }
        // Clock gating keeps the SRAM fully powered, so it must save less
        // than drowsy-everywhere's retention sleep on a decode trace whose
        // scratchpad is mostly dead.
        let clock = set.row(PolicyKind::EXTENDED[0]).savings;
        let drowsy = set.row(PolicyKind::DrowsyEverywhere).savings;
        assert!(drowsy > clock, "drowsy {drowsy} <= clock gating {clock}");
    }

    #[test]
    fn infeasible_deployments_are_denied_not_fabricated() {
        // The engine used to fall back to `ParallelismConfig::new(n, 1, 1)`
        // when no legal split existed, silently pricing a deployment whose
        // weights cannot fit in HBM. Now the denial is a diagnostic.
        let evaluator = Evaluator::new(NpuGeneration::D);
        for (wl, chips) in [
            (Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode), 1usize),
            (Workload::llm(LlamaModel::Llama3_405B, LlmPhase::Training), 4),
            (Workload::dlrm(DlrmSize::Large), 1),
        ] {
            let report = evaluator.try_evaluate(&wl, chips).expect_err("deployment cannot fit");
            assert!(!report.is_schedulable(), "{wl} on {chips} chip(s)");
            assert!(
                report
                    .denials()
                    .any(|d| d.rule_id == npu_sim::analysis::rules::TOPO_PARALLELISM_INFEASIBLE),
                "{wl} on {chips} chip(s): missing topo.parallelism-infeasible"
            );
        }
        // Feasible deployments are untouched by the new path.
        let ok = evaluator
            .try_evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1)
            .expect("8B decode fits one chip");
        assert_eq!(
            ok,
            evaluator.evaluate(&Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode), 1)
        );
    }

    #[test]
    fn whole_chip_gating_recovers_uncore_static_on_top_of_full() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode);
        let chip = ChipConfig::new(NpuGeneration::D, 1);
        let parallelism = wl
            .default_parallelism(chip.spec(), 1)
            .unwrap_or_else(|| ParallelismConfig::new(1, 1, 1));
        let graph = wl.build_graph(&parallelism);
        let compiled = Compiler::new(chip.spec().clone()).compile(&graph);
        let simulation = Simulator::new(chip).run(&compiled);
        let kinds = [PolicyKind::Preset(Design::ReGateFull), PolicyKind::WholeChipFull];
        let set = evaluator.evaluate_policies(1, &compiled, &simulation, 1.0, &kinds);
        let full = set.row(kinds[0]);
        let whole = set.row(PolicyKind::WholeChipFull);
        // Chip-level gating only ever *adds* recovery on top of Full: the
        // uncore energy never rises and the savings never fall.
        let full_other = full.energy.component(ComponentKind::Other).total_j();
        let whole_other = whole.energy.component(ComponentKind::Other).total_j();
        assert!(whole_other <= full_other + 1e-12, "{whole_other} > {full_other}");
        assert!(whole.savings >= full.savings - 1e-12);
    }

    #[test]
    fn energy_per_work_uses_deployment_size() {
        let evaluator = Evaluator::new(NpuGeneration::D);
        let wl = Workload::dlrm(DlrmSize::Small).with_batch(4096);
        let eval = evaluator.evaluate(&wl, 8);
        let per_request = eval.energy_per_work(Design::NoPg);
        assert!(per_request > 0.0);
        assert!(
            (per_request - eval.design(Design::NoPg).energy.total_j() * 8.0 / 4096.0).abs() < 1e-9
        );
    }
}
