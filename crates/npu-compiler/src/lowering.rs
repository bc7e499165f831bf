//! Lowering: combines unit assignment, fusion, and tiling into the compiled
//! operator stream that the performance simulator executes.

use serde::{Deserialize, Serialize};

use npu_arch::NpuSpec;
use npu_models::{Adjacency, ExecutionUnit, Operator, OperatorGraph};

use crate::fusion::FusionPlan;
use crate::tiling::TileChoice;

/// One operator after compilation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledOp {
    /// The original operator (shapes, name, dtype).
    pub op: Operator,
    /// Execution unit the operator was assigned to.
    pub unit: ExecutionUnit,
    /// Tiling decision and SRAM demand.
    pub tile: TileChoice,
    /// If the operator was fused into an earlier anchor, the anchor's id.
    pub folded_into: Option<usize>,
    /// For anchors: vector elements of post-processing fused into this
    /// operator (from the operators folded into it).
    pub fused_vu_elements: u64,
    /// For anchors: FLOPs of the fused post-processing.
    pub fused_vu_flops: f64,
}

impl CompiledOp {
    /// Whether this operator executes on its own (it is a fusion anchor).
    #[must_use]
    pub fn is_anchor(&self) -> bool {
        self.folded_into.is_none()
    }

    /// Total vector-unit elements this anchor processes: its own vector
    /// work (if it is a VU operator) plus the fused post-processing.
    #[must_use]
    pub fn total_vu_elements(&self) -> u64 {
        let own = if self.unit == ExecutionUnit::Vu { own_vu_elements(&self.op) } else { 0 };
        own + self.fused_vu_elements
    }

    /// SRAM demand of the operator in MiB (Figure 7 metric).
    #[must_use]
    pub fn sram_demand_mib(&self) -> f64 {
        self.tile.sram_demand_mib()
    }
}

/// Number of vector elements a VU operator touches.
fn own_vu_elements(op: &Operator) -> u64 {
    use npu_models::OpKind;
    match op.kind {
        OpKind::Elementwise { elements, .. } => elements,
        OpKind::Softmax { rows, cols } | OpKind::LayerNorm { rows, cols } => rows * cols,
        OpKind::MatMul { batch, m, n, .. } => batch * m * n,
        OpKind::Conv2d { batch, h_out, w_out, c_out, .. } => batch * h_out * w_out * c_out,
        _ => 0,
    }
}

/// Anchor position of an operator whose `folded_into` names no anchor of
/// its graph (only [`CompiledGraph::from_parts`] can build one).
const NO_ANCHOR: usize = usize::MAX;

/// A fully compiled operator graph.
///
/// Besides the operators it records, once, where they execute: the ids of
/// the fusion anchors and every operator's anchor position. Operator
/// names are shared ([`npu_models::Operator::name`]) and the producer
/// edges live in one [`Adjacency`], so [`CompiledGraph::extend_from`]
/// copies plain records instead of rebuilding strings and lists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledGraph {
    name: String,
    ops: Vec<CompiledOp>,
    /// `producers.of(id)`: anchor ids the fusion group anchored at `id`
    /// consumes from (deduplicated, ascending; empty for folded operators
    /// and for source anchors). Edges of folded operators are remapped to
    /// their anchors, so the set is the complete dependency frontier of
    /// the anchor's whole group.
    producers: Adjacency,
    /// Ids of the fusion anchors in ascending order — the anchor order
    /// the simulator's per-anchor vectors use.
    anchor_ids: Vec<usize>,
    /// `positions[id]`: index into `anchor_ids` of the anchor executing
    /// operator `id` ([`NO_ANCHOR`] when `folded_into` names no anchor).
    positions: Vec<usize>,
}

/// The anchor ids of `ops` and every operator's anchor position: an
/// anchor maps to its own index among the anchors, a folded operator to
/// its anchor's, and a `folded_into` that names no anchor of `ops` (out
/// of range, or a folded operator) to [`NO_ANCHOR`].
fn anchor_index(ops: &[CompiledOp]) -> (Vec<usize>, Vec<usize>) {
    let mut anchor_ids = Vec::new();
    let mut positions = vec![NO_ANCHOR; ops.len()];
    for (id, op) in ops.iter().enumerate() {
        if op.is_anchor() {
            positions[id] = anchor_ids.len();
            anchor_ids.push(id);
        }
    }
    for (id, op) in ops.iter().enumerate() {
        if let Some(anchor) = op.folded_into {
            positions[id] = match ops.get(anchor) {
                Some(target) if target.is_anchor() => positions[anchor],
                _ => NO_ANCHOR,
            };
        }
    }
    (anchor_ids, positions)
}

impl CompiledGraph {
    /// An empty compiled graph — the seed for concatenating independently
    /// compiled subgraphs with [`CompiledGraph::extend_from`].
    #[must_use]
    pub fn empty(name: impl Into<String>) -> Self {
        CompiledGraph {
            name: name.into(),
            ops: Vec::new(),
            producers: Adjacency::new(),
            anchor_ids: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Assembles a compiled graph from raw parts *without validating the
    /// dependency structure*.
    ///
    /// [`Compiler::compile`] and [`CompiledGraph::extend_from`] can only
    /// produce well-formed graphs (forward edges, fusion groups anchored
    /// on real anchors), so the defects the static analyzer exists to
    /// catch — cyclic producer edges, dangling ids, producer lists that
    /// reference fused-away operators — are unconstructible through them.
    /// This constructor is the deliberate back door: analyzer fixtures
    /// and external frontends (a deserialized graph from another
    /// compiler) assemble graphs here and run
    /// `npu-sim`'s analysis pass to find out whether they are schedulable,
    /// instead of discovering it as an engine panic mid-simulation.
    ///
    /// The per-operator `producers` lists are flattened into one
    /// [`Adjacency`], and the anchor index is recorded here as in
    /// [`Compiler::compile`]. A `folded_into` that names no anchor of the
    /// graph gets the anchor position `usize::MAX` instead of a panic
    /// (see [`CompiledGraph::anchor_positions`]).
    ///
    /// # Panics
    ///
    /// Panics if `producers` does not carry exactly one list per operator
    /// (a malformed *container*, as opposed to malformed *edges*, which
    /// are exactly what the analyzer is for).
    #[must_use]
    pub fn from_parts(
        name: impl Into<String>,
        ops: Vec<CompiledOp>,
        producers: Vec<Vec<usize>>,
    ) -> Self {
        assert_eq!(
            ops.len(),
            producers.len(),
            "from_parts: one producer list per compiled operator"
        );
        let (anchor_ids, positions) = anchor_index(&ops);
        CompiledGraph { name: name.into(), ops, producers: producers.into(), anchor_ids, positions }
    }

    /// Reserves room to append `ops` more operators, `anchors` of them
    /// anchors, carrying `edges` more producer edges — the totals of the
    /// graphs about to be appended with [`CompiledGraph::extend_from`], so
    /// that the buffers grow once, to their final size.
    pub fn reserve(&mut self, ops: usize, anchors: usize, edges: usize) {
        self.ops.reserve(ops);
        self.producers.reserve(ops, edges);
        self.anchor_ids.reserve(anchors);
        self.positions.reserve(ops);
    }

    /// Appends another compiled graph's operators, remapping operator ids,
    /// fusion-anchor references, and producer edges by this graph's current
    /// length. Returns the id range the appended operators landed on.
    ///
    /// Because fusion follows producer edges only — disconnected subgraphs
    /// never fuse across their boundary — and unit assignment and tiling
    /// are per-operator, concatenating per-batch *compiled* graphs this way
    /// is bit-for-bit identical to compiling the concatenated operator
    /// graph. That equivalence is what lets a serving run reuse cached
    /// compilations of repeated batch shapes.
    ///
    /// The append copies records only: operator names are shared
    /// pointers, the producer edges and the anchor index are shifted
    /// copies of `other`'s (an anchor position of `usize::MAX` stays
    /// `usize::MAX`), and nothing is rescanned.
    pub fn extend_from(&mut self, other: &CompiledGraph) -> std::ops::Range<usize> {
        let base = self.ops.len();
        let anchor_base = self.anchor_ids.len();
        self.ops.extend(other.ops.iter().map(|op| {
            let mut op = op.clone();
            op.op.id += base;
            op.folded_into = op.folded_into.map(|anchor| anchor + base);
            op
        }));
        self.producers.extend_shifted(&other.producers, base);
        self.anchor_ids.extend(other.anchor_ids.iter().map(|&id| id + base));
        self.positions.extend(other.positions.iter().map(|&position| {
            if position == NO_ANCHOR {
                NO_ANCHOR
            } else {
                position + anchor_base
            }
        }));
        base..self.ops.len()
    }

    /// Name of the source graph.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Anchor ids feeding the fusion group anchored at operator `id`
    /// (empty for folded operators and source anchors).
    #[must_use]
    pub fn producers_of(&self, id: usize) -> &[usize] {
        self.producers.of(id)
    }

    /// Number of producer edges over all operators.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.producers.num_edges()
    }

    /// Per-anchor producer sets remapped to *anchor positions* (indices
    /// into the [`CompiledGraph::anchors`] iteration order), as one CSR
    /// [`Adjacency`] — the layout the timeline engine consumes, and the
    /// one producer store a `PreparedSimulator` and every result it
    /// returns share. A producer that is not an anchor (a malformed
    /// [`CompiledGraph::from_parts`] graph) maps to `usize::MAX`.
    #[must_use]
    pub fn anchor_producers(&self) -> Adjacency {
        let mut adjacency = Adjacency::new();
        adjacency.reserve(self.anchor_ids.len(), self.producers.num_edges());
        for &id in &self.anchor_ids {
            adjacency.push(self.producers.of(id).iter().map(|&p| {
                let position = self.positions[p];
                if self.anchor_ids.get(position) == Some(&p) {
                    position
                } else {
                    NO_ANCHOR
                }
            }));
        }
        adjacency
    }

    /// For every compiled operator, the *anchor position* (index into the
    /// [`CompiledGraph::anchors`] iteration order — the layout of the
    /// simulator's timing vector) of the fusion group executing it. A
    /// folded operator maps to its anchor's position; an anchor maps to
    /// its own. The serving layer uses this to find which scheduled
    /// anchors a request's operator range landed on.
    ///
    /// Recorded when the graph is built, never rescanned. A folded
    /// operator whose `folded_into` names no anchor (only
    /// [`CompiledGraph::from_parts`] can build one) maps to `usize::MAX`.
    #[must_use]
    pub fn anchor_positions(&self) -> &[usize] {
        &self.positions
    }

    /// All compiled operators (anchors and folded operators) in order.
    #[must_use]
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Number of compiled operators (equals the source graph's length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The fusion anchors (the operators the simulator runs) in id order,
    /// walked through the recorded anchor ids rather than a scan of every
    /// operator.
    pub fn anchors(&self) -> impl ExactSizeIterator<Item = &CompiledOp> {
        self.anchor_ids.iter().map(|&id| &self.ops[id])
    }

    /// Ids of the fusion anchors, ascending: `anchor_ids()[k]` is the
    /// operator id at anchor position `k`.
    #[must_use]
    pub fn anchor_ids(&self) -> &[usize] {
        &self.anchor_ids
    }

    /// Number of anchors, in O(1).
    #[must_use]
    pub fn num_anchors(&self) -> usize {
        self.anchor_ids.len()
    }

    /// Per-anchor SRAM demand in MiB, in execution order (input to the
    /// Figure 7 CDF, which weights each operator by its execution time).
    #[must_use]
    pub fn sram_demands_mib(&self) -> Vec<f64> {
        self.anchors().map(CompiledOp::sram_demand_mib).collect()
    }
}

/// The compiler backend: assigns units, fuses, and tiles a graph for one
/// NPU generation.
#[derive(Debug, Clone)]
pub struct Compiler {
    spec: NpuSpec,
}

impl Compiler {
    /// Creates a compiler targeting the given NPU generation.
    #[must_use]
    pub fn new(spec: NpuSpec) -> Self {
        Compiler { spec }
    }

    /// The target NPU specification.
    #[must_use]
    pub fn spec(&self) -> &NpuSpec {
        &self.spec
    }

    /// Compiles an operator graph: unit assignment (based on the target's
    /// systolic-array width), producer→consumer fusion, and tiling.
    #[must_use]
    pub fn compile(&self, graph: &OperatorGraph) -> CompiledGraph {
        let fusion = FusionPlan::for_graph(graph);
        let mut ops: Vec<CompiledOp> = Vec::with_capacity(graph.len());

        for op in graph.iter() {
            let unit = op.execution_unit_for(self.spec.sa_width as u64);
            let tile = TileChoice::for_operator(op, &self.spec);
            let folded_into = if fusion.is_fused(op.id) {
                Some(fusion.anchor_of(fusion.group_of(op.id)))
            } else {
                None
            };
            ops.push(CompiledOp {
                op: op.clone(),
                unit,
                tile,
                folded_into,
                fused_vu_elements: 0,
                fused_vu_flops: 0.0,
            });
        }

        // Accumulate fused VU work onto the anchors.
        for id in 0..ops.len() {
            if let Some(anchor) = ops[id].folded_into {
                let elems = own_vu_elements(&ops[id].op);
                let flops = ops[id].op.flops();
                let extra_hbm = ops[id].tile.hbm_bytes;
                ops[anchor].fused_vu_elements += elems;
                ops[anchor].fused_vu_flops += flops;
                // Fused operators avoid the HBM round-trip of their
                // intermediate tensor: only the extra inputs (e.g. the
                // residual operand) still need to be read. We approximate
                // this by charging half of the folded operator's traffic to
                // the anchor.
                ops[anchor].tile.hbm_bytes += extra_hbm / 2;
            }
        }

        // Remap the graph's producer edges through the fusion groups: an
        // anchor depends on every anchor that feeds any member of its
        // group (intra-group edges collapse). Sorting the pairs leaves
        // every anchor's list ascending and, after `dedup`, duplicate-free.
        let mut edges: Vec<(usize, usize)> = Vec::with_capacity(graph.len());
        for (id, op) in ops.iter().enumerate() {
            let anchor = op.folded_into.unwrap_or(id);
            for &p in graph.producers_of(id) {
                let producer_anchor = ops[p].folded_into.unwrap_or(p);
                if producer_anchor != anchor {
                    edges.push((anchor, producer_anchor));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let producers = Adjacency::from_edges(ops.len(), edges.iter().copied());
        let (anchor_ids, positions) = anchor_index(&ops);

        CompiledGraph { name: graph.name().to_string(), ops, producers, anchor_ids, positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npu_arch::{NpuGeneration, ParallelismConfig};
    use npu_models::{DlrmSize, LlamaModel, LlmPhase, Workload};

    fn compiler() -> Compiler {
        Compiler::new(NpuSpec::generation(NpuGeneration::D))
    }

    #[test]
    fn compile_preserves_operator_count() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let g = wl.build_graph(&ParallelismConfig::single());
        let compiled = compiler().compile(&g);
        assert_eq!(compiled.len(), g.len());
        assert!(compiled.num_anchors() < compiled.len());
        assert_eq!(compiled.name(), g.name());
    }

    #[test]
    fn anchors_accumulate_fused_vu_work() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let g = wl.build_graph(&ParallelismConfig::single());
        let compiled = compiler().compile(&g);
        let with_fusion: Vec<_> =
            compiled.anchors().filter(|op| op.fused_vu_elements > 0).collect();
        assert!(!with_fusion.is_empty());
        // An anchor that absorbed a residual add or activation has at least
        // as many fused VU elements as its own output elements.
        let ffn_gate = compiled
            .ops()
            .iter()
            .find(|c| c.op.name.contains("ffn_up") && c.is_anchor())
            .expect("ffn_up anchor");
        assert!(ffn_gate.fused_vu_elements > 0);
    }

    #[test]
    fn folded_ops_reference_valid_anchor() {
        let wl = Workload::dlrm(DlrmSize::Small);
        let g = wl.build_graph(&ParallelismConfig::new(8, 1, 1));
        let compiled = compiler().compile(&g);
        for (id, op) in compiled.ops().iter().enumerate() {
            if let Some(anchor) = op.folded_into {
                assert!(anchor < id, "anchor must precede the folded op");
                assert!(compiled.ops()[anchor].is_anchor());
            }
        }
    }

    #[test]
    fn decode_ops_move_to_vu_on_wide_sa() {
        // On NPU-E (256-wide SA) even more matmuls fall below the warm-up
        // threshold than on NPU-D.
        let wl = Workload::llm(LlamaModel::Llama3_70B, LlmPhase::Decode).with_batch(8);
        let g = wl.build_graph(&ParallelismConfig::new(1, 8, 1));
        let on_d = compiler().compile(&g);
        let on_e = Compiler::new(NpuSpec::generation(NpuGeneration::E)).compile(&g);
        let sa_d = on_d.ops().iter().filter(|c| c.unit == ExecutionUnit::Sa).count();
        let sa_e = on_e.ops().iter().filter(|c| c.unit == ExecutionUnit::Sa).count();
        assert!(sa_e <= sa_d);
    }

    #[test]
    fn sram_demand_vector_covers_anchors() {
        let wl = Workload::llm(LlamaModel::Llama2_13B, LlmPhase::Decode);
        let g = wl.build_graph(&ParallelismConfig::single());
        let compiled = compiler().compile(&g);
        let demands = compiled.sram_demands_mib();
        assert_eq!(demands.len(), compiled.num_anchors());
        assert!(demands.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn anchor_producers_collapse_fusion_groups() {
        use npu_models::{DataType, OpKind, Operator, OperatorGraph};
        // mm -> relu (fused) -> add (fused) -> mm2: the anchor of mm2
        // depends on the anchor of the group it consumes from (mm), and
        // intra-group edges vanish.
        let mut g = OperatorGraph::new("t");
        let mm = |name: &str| {
            Operator::new(
                name,
                OpKind::MatMul { batch: 1, m: 512, k: 512, n: 512, weights_resident: true },
                DataType::Bf16,
            )
        };
        let ew = |name: &str| {
            Operator::new(
                name,
                OpKind::Elementwise { elements: 512 * 512, flops_per_element: 1, num_inputs: 1 },
                DataType::Bf16,
            )
        };
        g.push(mm("mm"));
        g.push(ew("relu"));
        g.push(ew("add"));
        g.push(mm("mm2"));
        let compiled = compiler().compile(&g);
        assert_eq!(compiled.num_anchors(), 2);
        assert_eq!(compiled.producers_of(0), &[] as &[usize]);
        assert_eq!(compiled.producers_of(3), &[0]);
        assert_eq!(compiled.anchor_producers(), Adjacency::from(vec![vec![], vec![0]]));
    }

    #[test]
    fn anchor_producers_preserve_fan_in() {
        use npu_models::{DataType, OpKind, Operator, OperatorGraph};
        let mut g = OperatorGraph::new("t");
        let mm = |name: &str| {
            Operator::new(
                name,
                OpKind::MatMul { batch: 1, m: 512, k: 512, n: 512, weights_resident: true },
                DataType::Bf16,
            )
        };
        let a = g.push_source(mm("a"));
        let b = g.push_source(mm("b"));
        g.push_with_producers(
            Operator::new(
                "join",
                OpKind::Elementwise { elements: 512 * 512, flops_per_element: 1, num_inputs: 2 },
                DataType::Bf16,
            ),
            vec![a, b],
        );
        let compiled = compiler().compile(&g);
        assert_eq!(compiled.num_anchors(), 3, "a fan-in join is never folded");
        assert_eq!(compiled.producers_of(2), &[0, 1]);
        assert_eq!(compiled.anchor_producers(), Adjacency::from(vec![vec![], vec![], vec![0, 1]]));
    }

    /// The anchor ids by a scan of every operator — the definition
    /// [`CompiledGraph::anchors`] had before the index was recorded.
    fn scanned_anchor_ids(graph: &CompiledGraph) -> Vec<usize> {
        (0..graph.len()).filter(|&id| graph.ops()[id].is_anchor()).collect()
    }

    /// The op → anchor-position map by a scan through `folded_into` — the
    /// definition [`CompiledGraph::anchor_positions`] had before the index
    /// was recorded. Where that scan indexed out of range (and panicked),
    /// this one reads the sentinel.
    fn scanned_positions(graph: &CompiledGraph) -> Vec<usize> {
        let mut position = vec![usize::MAX; graph.len()];
        for (index, id) in scanned_anchor_ids(graph).into_iter().enumerate() {
            position[id] = index;
        }
        graph
            .ops()
            .iter()
            .enumerate()
            .map(|(id, op)| {
                position.get(op.folded_into.unwrap_or(id)).copied().unwrap_or(usize::MAX)
            })
            .collect()
    }

    /// The recorded anchor index equals the scans, and `anchors()` is an
    /// exact-size walk of exactly the scanned anchors.
    fn assert_index_matches_scan(graph: &CompiledGraph) {
        let ids = scanned_anchor_ids(graph);
        assert_eq!(graph.anchor_ids(), ids.as_slice());
        assert_eq!(graph.num_anchors(), ids.len());
        let anchors = graph.anchors();
        assert_eq!(anchors.len(), ids.len());
        for (anchor, &id) in anchors.zip(&ids) {
            assert!(std::ptr::eq(anchor, &graph.ops()[id]), "anchors() skipped or reordered {id}");
        }
        assert_eq!(graph.anchor_positions(), scanned_positions(graph).as_slice());
    }

    #[test]
    fn recorded_anchor_index_matches_the_scans_on_compiled_graphs() {
        let graphs = [
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill)
                .build_graph(&ParallelismConfig::single()),
            Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Decode)
                .build_graph(&ParallelismConfig::single()),
            Workload::dlrm(DlrmSize::Small).build_graph(&ParallelismConfig::new(8, 1, 1)),
            npu_models::OperatorGraph::new("empty"),
        ];
        for graph in &graphs {
            let compiled = compiler().compile(graph);
            assert_index_matches_scan(&compiled);
            assert_eq!(compiled.anchor_producers().len(), compiled.num_anchors());
        }
    }

    #[test]
    fn malformed_folded_into_maps_to_the_sentinel_without_panicking() {
        let wl = Workload::dlrm(DlrmSize::Small);
        let compiled = compiler().compile(&wl.build_graph(&ParallelismConfig::single()));
        let mut ops = compiled.ops().to_vec();
        let producers: Vec<Vec<usize>> =
            (0..ops.len()).map(|id| compiled.producers_of(id).to_vec()).collect();
        let folded = (0..ops.len()).find(|&id| !ops[id].is_anchor()).expect("DLRM fuses");
        // Out of range, onto itself, and onto a folded operator.
        ops[1].folded_into = Some(ops.len() + 7);
        ops[2].folded_into = Some(2);
        ops[3].folded_into = Some(folded);
        let broken = CompiledGraph::from_parts("broken", ops, producers);
        assert_index_matches_scan(&broken);
        for id in 1..=3 {
            assert_eq!(broken.anchor_positions()[id], usize::MAX, "op {id}");
        }

        // Appending keeps a sentinel a sentinel and shifts everything else.
        let mut concat = CompiledGraph::empty("concat");
        concat.extend_from(&compiled);
        let second = concat.extend_from(&broken);
        for id in 1..=3 {
            assert_eq!(concat.anchor_positions()[second.start + id], usize::MAX, "op {id}");
        }
        assert_eq!(concat.num_anchors(), compiled.num_anchors() + broken.num_anchors());
        assert_eq!(
            concat.anchor_positions()[second.start..],
            broken
                .anchor_positions()
                .iter()
                .map(|&p| if p == usize::MAX { p } else { p + compiled.num_anchors() })
                .collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn anchor_positions_cover_every_operator() {
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let g = wl.build_graph(&ParallelismConfig::single());
        let compiled = compiler().compile(&g);
        let positions = compiled.anchor_positions();
        assert_eq!(positions.len(), compiled.len());
        let num_anchors = compiled.num_anchors();
        for (id, op) in compiled.ops().iter().enumerate() {
            assert!(positions[id] < num_anchors, "op {id} maps outside the anchor vector");
            match op.folded_into {
                Some(anchor) => assert_eq!(positions[id], positions[anchor]),
                None => {
                    // Anchors map to their own position, in iteration order.
                    let by_iter = compiled
                        .anchors()
                        .position(|a| a.op.id == id)
                        .expect("anchor appears in the iteration");
                    assert_eq!(positions[id], by_iter);
                }
            }
        }
    }

    #[test]
    fn concatenating_compiled_subgraphs_matches_compiling_the_concatenation() {
        // The serving cache's founding identity: compiling two disconnected
        // copies of a subgraph equals compiling the subgraph once and
        // concatenating the compiled result — fusion follows producer edges
        // only, and unit assignment/tiling are per-operator.
        let wl = Workload::llm(LlamaModel::Llama3_8B, LlmPhase::Prefill);
        let sub = wl.build_graph(&ParallelismConfig::single());
        let mut combined_src = npu_models::OperatorGraph::new("combined");
        combined_src.extend_from(&sub);
        combined_src.extend_from(&sub);
        let reference = compiler().compile(&combined_src);

        let sub_compiled = compiler().compile(&sub);
        let mut concat = CompiledGraph::empty("combined");
        let first = concat.extend_from(&sub_compiled);
        let second = concat.extend_from(&sub_compiled);
        assert_eq!(first, 0..sub.len());
        assert_eq!(second, sub.len()..2 * sub.len());
        assert_eq!(concat.name(), reference.name());
        assert_eq!(concat.ops(), reference.ops());
        for id in 0..concat.len() {
            assert_eq!(concat.producers_of(id), reference.producers_of(id), "op {id}");
        }
        assert_eq!(concat.anchor_positions(), reference.anchor_positions());
        assert_eq!(concat.anchor_producers(), reference.anchor_producers());
        assert_index_matches_scan(&concat);
        assert_index_matches_scan(&reference);

        // A concatenation sized up front holds the same graph.
        let mut sized = CompiledGraph::empty("combined");
        sized.reserve(
            2 * sub_compiled.len(),
            2 * sub_compiled.num_anchors(),
            2 * sub_compiled.num_edges(),
        );
        sized.extend_from(&sub_compiled);
        sized.extend_from(&sub_compiled);
        assert_eq!(sized, concat);
    }

    #[test]
    fn empty_graph_compiles_to_empty() {
        let compiled = compiler().compile(&npu_models::OperatorGraph::new("empty"));
        assert!(compiled.is_empty());
        assert_eq!(compiled.num_anchors(), 0);
    }
}
