//! Expansion of compiled operators into representative VLIW instruction
//! schedules.
//!
//! The instruction-level view is what the ReGate compiler passes operate on
//! (component idleness analysis and `setpm` instrumentation, §4.3) and what
//! Figure 15 of the paper illustrates: a MatMul whose vector units
//! post-process systolic-array outputs for 2 cycles out of every 16-cycle
//! period. The schedules generated here reproduce that structure — SA
//! push/pop streams with sparse VU post-processing, VU operators separated
//! by DMA waits — without materializing one bundle per hardware cycle for
//! multi-million-cycle operators (tiles are capped and the cap is recorded).

use serde::{Deserialize, Serialize};

use npu_arch::NpuSpec;
use npu_isa::{Program, SlotOp, VliwBundle};
use npu_models::ExecutionUnit;

use crate::lowering::CompiledOp;

/// Limits applied when expanding an operator into bundles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpansionLimits {
    /// Maximum number of tiles expanded per operator (the remaining tiles
    /// repeat the same pattern and are accounted for analytically).
    pub max_tiles: u64,
}

impl Default for ExpansionLimits {
    fn default() -> Self {
        ExpansionLimits { max_tiles: 64 }
    }
}

/// Expands a compiled anchor operator into a VLIW program for one NPU.
///
/// Returns the program and the number of tiles it covers (which may be
/// less than the operator's total tile count when capped by `limits`).
#[must_use]
pub fn expand_operator(op: &CompiledOp, spec: &NpuSpec, limits: ExpansionLimits) -> (Program, u64) {
    let mut program = Program::new(&*op.op.name);
    let tiles = op.tile.num_tiles.min(limits.max_tiles).max(1);
    let sa_rows = spec.sa_width as u32;
    let vu_capacity = spec.vu_elems_per_cycle() as u64;

    match op.unit {
        ExecutionUnit::Sa => {
            // Per tile: weight load (only first tile of a panel), a push of
            // `sa_rows` rows, a pop of `sa_rows` rows, and the fused VU
            // post-processing spread over the pop.
            let fused_per_tile = op.fused_vu_elements / op.tile.num_tiles.max(1);
            let vu_cycles_per_tile =
                fused_per_tile.div_ceil(vu_capacity.max(1)).min(u64::from(sa_rows));
            for tile in 0..tiles {
                if tile == 0 {
                    program.push(
                        VliwBundle::new().with_sa(0, SlotOp::SaLoadWeights { cycles: sa_rows }),
                    );
                }
                program.push(VliwBundle::new().with_sa(0, SlotOp::sa_push(sa_rows)));
                let mut pop = VliwBundle::new().with_sa(0, SlotOp::sa_pop(sa_rows));
                if vu_cycles_per_tile > 0 {
                    pop = pop.with_vu(0, SlotOp::vu_add((vu_cycles_per_tile * vu_capacity) as u32));
                }
                program.push(pop);
                // Idle gap while the next tile's operands are DMA'd in.
                program.push(
                    VliwBundle::new()
                        .with_dma(SlotOp::Dma {
                            bytes: op.tile.sram_used_bytes / tiles.max(1),
                            remote: false,
                        })
                        .with_misc(SlotOp::Nop { cycles: (sa_rows / 8).max(1) }),
                );
            }
        }
        ExecutionUnit::Vu => {
            // VU operators: bursts of vector work separated by DMA waits
            // (memory-bound VU operators wait on HBM between tiles).
            let total = op.total_vu_elements().max(1);
            let per_tile = total.div_ceil(tiles);
            let busy_cycles = per_tile.div_ceil(vu_capacity.max(1)).max(1);
            for _ in 0..tiles {
                program.push(VliwBundle::new().with_dma(SlotOp::Dma {
                    bytes: op.tile.hbm_bytes / tiles.max(1),
                    remote: false,
                }));
                program.push(
                    VliwBundle::new()
                        .with_misc(SlotOp::Nop { cycles: (busy_cycles as u32).max(4) }),
                );
                program.push(
                    VliwBundle::new()
                        .with_vu(0, SlotOp::vu_add((busy_cycles * vu_capacity) as u32)),
                );
            }
        }
        ExecutionUnit::Hbm => {
            for _ in 0..tiles {
                program.push(VliwBundle::new().with_dma(SlotOp::Dma {
                    bytes: op.tile.hbm_bytes / tiles.max(1),
                    remote: false,
                }));
                program.push(VliwBundle::new().with_misc(SlotOp::Nop { cycles: 16 }));
            }
        }
        ExecutionUnit::Ici => {
            for _ in 0..tiles {
                program.push(
                    VliwBundle::new()
                        .with_ici(SlotOp::Ici { bytes: op.op.ici_bytes() / tiles.max(1) }),
                );
                program.push(VliwBundle::new().with_misc(SlotOp::Nop { cycles: 32 }));
            }
        }
    }
    (program, tiles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::Compiler;
    use npu_arch::{NpuGeneration, ParallelismConfig};
    use npu_isa::bundle::Slot;
    use npu_models::{LlamaModel, LlmPhase, Workload};

    fn compiled_prefill() -> (NpuSpec, Vec<CompiledOp>) {
        let spec = NpuSpec::generation(NpuGeneration::D);
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let graph = wl.build_graph(&ParallelismConfig::single());
        let compiled = Compiler::new(spec.clone()).compile(&graph);
        (spec, compiled.ops().to_vec())
    }

    #[test]
    fn sa_operator_expands_to_push_pop_pattern() {
        let (spec, ops) = compiled_prefill();
        let anchor = ops
            .iter()
            .find(|o| o.is_anchor() && o.unit == ExecutionUnit::Sa && o.fused_vu_elements > 0)
            .expect("an SA anchor with fused work");
        let (program, tiles) = expand_operator(anchor, &spec, ExpansionLimits::default());
        assert!(tiles >= 1);
        assert!(!program.is_empty());
        let has_push = program
            .bundles()
            .iter()
            .any(|b| matches!(b.slot(Slot::Sa(0)), Some(SlotOp::SaPush { .. })));
        let has_vu = program
            .bundles()
            .iter()
            .any(|b| matches!(b.slot(Slot::Vu(0)), Some(SlotOp::VuOp { .. })));
        assert!(has_push && has_vu);
        assert_eq!(program.setpm_count(), 0, "expansion emits no setpm; instrumentation does");
    }

    #[test]
    fn vu_operator_has_dma_gaps() {
        let (spec, ops) = compiled_prefill();
        let vu_anchor = ops
            .iter()
            .find(|o| o.is_anchor() && o.unit == ExecutionUnit::Vu)
            .expect("a VU anchor (layernorm)");
        let (program, _) = expand_operator(vu_anchor, &spec, ExpansionLimits::default());
        let dmas = program
            .bundles()
            .iter()
            .filter(|b| matches!(b.slot(Slot::Dma), Some(SlotOp::Dma { .. })))
            .count();
        assert!(dmas >= 1);
        assert!(program.issue_cycles() > program.len() as u64, "nop stalls add cycles");
    }

    #[test]
    fn tile_cap_limits_program_size() {
        let (spec, ops) = compiled_prefill();
        let big = ops
            .iter()
            .filter(|o| o.is_anchor() && o.unit == ExecutionUnit::Sa)
            .max_by_key(|o| o.tile.num_tiles)
            .unwrap();
        let (program, tiles) = expand_operator(big, &spec, ExpansionLimits { max_tiles: 8 });
        assert!(tiles <= 8);
        assert!(program.len() <= 8 * 4 + 1);
    }
}
