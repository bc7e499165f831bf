//! Operator graph: the tensor operators that make up one unit of work (a
//! training iteration, a prefill pass, one decode step, one DLRM batch, or
//! one diffusion step), together with explicit producer→consumer edges.
//!
//! NPU compilers assume a static computation graph with known shapes
//! (paper §4.3). Operator ids are assigned in insertion order and every
//! edge points from a smaller id to a larger one, so the id order *is* a
//! topological order — which is what the statically scheduled, in-order
//! NPU pipeline issues from. [`OperatorGraph::push`] preserves the
//! historical chain semantics (each operator depends on the previous one);
//! [`OperatorGraph::push_source`] and [`OperatorGraph::push_with_producers`]
//! express true DAG structure — fan-out (one producer feeding several
//! independent consumers) and fan-in (a join such as DLRM's all-to-all
//! over every per-table gather). The producer lists live in one
//! [`Adjacency`].

use serde::{Deserialize, Serialize};

use crate::adjacency::Adjacency;
use crate::op::{ExecutionUnit, Operator};

/// A statically shaped operator DAG whose id order is a topological order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorGraph {
    name: String,
    operators: Vec<Operator>,
    /// `producers.of(i)`: sorted, deduplicated ids the operator `i`
    /// consumes from (empty = source), every one smaller than `i`.
    producers: Adjacency,
}

impl OperatorGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        OperatorGraph { name: name.into(), operators: Vec::new(), producers: Adjacency::new() }
    }

    /// Name of the graph (workload + phase).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an operator *in chain position*: it depends on the
    /// previously pushed operator (if any), assigning and returning its id.
    pub fn push(&mut self, op: Operator) -> usize {
        let previous = self.operators.len().checked_sub(1);
        self.append(op, previous)
    }

    /// Appends an operator with no producers (a DAG source), e.g. an
    /// embedding gather that depends on nothing but its table.
    pub fn push_source(&mut self, op: Operator) -> usize {
        self.append(op, None)
    }

    /// Appends an operator with an explicit producer set and returns its
    /// id. Producer ids are sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if a producer id does not refer to an already-pushed
    /// operator — edges must point backwards so the id order stays a
    /// topological order.
    pub fn push_with_producers(&mut self, op: Operator, mut producers: Vec<usize>) -> usize {
        let id = self.operators.len();
        producers.sort_unstable();
        producers.dedup();
        if let Some(&max) = producers.last() {
            assert!(max < id, "operator {id} ({}): producer {max} is not an earlier id", op.name);
        }
        self.append(op, producers)
    }

    /// Appends `op` under the next id with `producers` (sorted,
    /// deduplicated, earlier ids) as its producer list.
    fn append(&mut self, mut op: Operator, producers: impl IntoIterator<Item = usize>) -> usize {
        let id = self.operators.len();
        op.id = id;
        self.operators.push(op);
        self.producers.push(producers);
        id
    }

    /// Producer ids of one operator (sorted, deduplicated; empty for a
    /// source).
    #[must_use]
    pub fn producers_of(&self, id: usize) -> &[usize] {
        self.producers.of(id)
    }

    /// Consumer ids of one operator (ascending).
    #[must_use]
    pub fn consumers_of(&self, id: usize) -> Vec<usize> {
        (0..self.operators.len()).filter(|&c| self.producers.of(c).contains(&id)).collect()
    }

    /// Ids of the source operators (no producers), in id order.
    #[must_use]
    pub fn sources(&self) -> Vec<usize> {
        (0..self.operators.len()).filter(|&id| self.producers.of(id).is_empty()).collect()
    }

    /// Ids of the sink operators (no consumers), in id order. A graph of
    /// independent request subgraphs has one (or more) per request; the
    /// batch-merge operator fans in over exactly this set.
    #[must_use]
    pub fn sinks(&self) -> Vec<usize> {
        let consumers = self.producers.transpose();
        (0..self.operators.len()).filter(|&id| consumers.of(id).is_empty()).collect()
    }

    /// A validated topological order of the graph.
    ///
    /// By construction the id order is topological; this method re-derives
    /// the order with Kahn's algorithm (smallest ready id first, so the
    /// result is exactly `0..len`) and asserts that every edge was
    /// honoured.
    ///
    /// # Panics
    ///
    /// Panics if the edge set contains a cycle.
    #[must_use]
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.operators.len();
        let mut indegree: Vec<usize> = (0..n).map(|id| self.producers.of(id).len()).collect();
        let consumers = self.producers.transpose();
        let mut ready: std::collections::BTreeSet<usize> =
            (0..n).filter(|&id| indegree[id] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&id) = ready.iter().next() {
            ready.remove(&id);
            order.push(id);
            for &c in consumers.of(id) {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.insert(c);
                }
            }
        }
        assert_eq!(order.len(), n, "operator graph contains a dependency cycle");
        order
    }

    /// Length of the critical path through the DAG when each operator
    /// costs `cost(op)` — the lower bound no schedule can beat.
    ///
    /// Walks the validated [`OperatorGraph::topological_order`], so even a
    /// hand-assembled or deserialized graph with edges that violate the id
    /// order is evaluated correctly (or panics on a cycle) instead of
    /// silently undercounting.
    #[must_use]
    pub fn critical_path_cost(&self, cost: impl Fn(&Operator) -> f64) -> f64 {
        let mut finish = vec![0.0f64; self.operators.len()];
        for id in self.topological_order() {
            let ready = self.producers.of(id).iter().map(|&p| finish[p]).fold(0.0f64, f64::max);
            finish[id] = ready + cost(&self.operators[id]);
        }
        finish.iter().copied().fold(0.0f64, f64::max)
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operators.len()
    }

    /// Whether the graph contains no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// Operators in id (topological) order.
    #[must_use]
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// Operator with a given id.
    #[must_use]
    pub fn get(&self, id: usize) -> Option<&Operator> {
        self.operators.get(id)
    }

    /// Iterator over the operators in id (topological) order.
    pub fn iter(&self) -> impl Iterator<Item = &Operator> {
        self.operators.iter()
    }

    /// Total FLOPs of the graph.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.operators.iter().map(Operator::flops).sum()
    }

    /// Total HBM traffic of the graph in bytes.
    #[must_use]
    pub fn total_hbm_bytes(&self) -> f64 {
        self.operators.iter().map(|op| op.hbm_bytes() as f64).sum()
    }

    /// Total ICI traffic of the graph in bytes per chip.
    #[must_use]
    pub fn total_ici_bytes(&self) -> f64 {
        self.operators.iter().map(|op| op.ici_bytes() as f64).sum()
    }

    /// Number of operators assigned to a given execution unit (using the
    /// default 128-wide systolic array mapping rule).
    #[must_use]
    pub fn count_by_unit(&self, unit: ExecutionUnit) -> usize {
        self.operators.iter().filter(|op| op.execution_unit() == unit).count()
    }

    /// Fraction of operators that are collectives.
    #[must_use]
    pub fn collective_fraction(&self) -> f64 {
        if self.operators.is_empty() {
            return 0.0;
        }
        self.operators.iter().filter(|op| op.is_collective()).count() as f64
            / self.operators.len() as f64
    }

    /// Appends another graph as an *independent subgraph*: ids are
    /// reassigned and the appended producer edges are remapped by the id
    /// offset, so `other`'s sources stay sources (no serial edge is added
    /// between the two graphs). Returns the id range of the appended
    /// operators.
    ///
    /// This is what lowers a multi-request batch into independent
    /// per-request chains: repeated `extend_from` calls followed by a
    /// fan-in operator over each subgraph's sink.
    pub fn extend_from(&mut self, other: &OperatorGraph) -> std::ops::Range<usize> {
        let base = self.operators.len();
        self.operators.extend(
            other
                .operators
                .iter()
                .enumerate()
                .map(|(i, op)| Operator { id: base + i, ..op.clone() }),
        );
        self.producers.extend_shifted(&other.producers, base);
        base..self.operators.len()
    }
}

impl Extend<Operator> for OperatorGraph {
    fn extend<T: IntoIterator<Item = Operator>>(&mut self, iter: T) {
        for op in iter {
            self.push(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;
    use crate::op::{CollectiveKind, OpKind};

    fn sample() -> OperatorGraph {
        let mut g = OperatorGraph::new("sample");
        g.push(Operator::new(
            "mm",
            OpKind::MatMul { batch: 1, m: 256, k: 256, n: 256, weights_resident: true },
            DataType::Bf16,
        ));
        g.push(Operator::new(
            "relu",
            OpKind::Elementwise { elements: 256 * 256, flops_per_element: 1, num_inputs: 1 },
            DataType::Bf16,
        ));
        g.push(Operator::new(
            "ar",
            OpKind::Collective { kind: CollectiveKind::AllReduce, bytes_per_chip: 1 << 20 },
            DataType::Bf16,
        ));
        g
    }

    fn vu_op(name: &str) -> Operator {
        Operator::new(
            name,
            OpKind::Elementwise { elements: 1024, flops_per_element: 1, num_inputs: 1 },
            DataType::Bf16,
        )
    }

    #[test]
    fn ids_are_assigned_in_order() {
        let g = sample();
        assert_eq!(g.len(), 3);
        for (i, op) in g.iter().enumerate() {
            assert_eq!(op.id, i);
        }
        assert_eq!(&*g.get(1).unwrap().name, "relu");
        assert!(g.get(99).is_none());
    }

    #[test]
    fn push_preserves_chain_edges() {
        let g = sample();
        assert_eq!(g.producers_of(0), &[] as &[usize]);
        assert_eq!(g.producers_of(1), &[0]);
        assert_eq!(g.producers_of(2), &[1]);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.consumers_of(0), vec![1]);
        assert_eq!(g.topological_order(), vec![0, 1, 2]);
    }

    #[test]
    fn explicit_edges_build_a_diamond() {
        let mut g = OperatorGraph::new("diamond");
        let a = g.push_source(vu_op("a"));
        let b = g.push_with_producers(vu_op("b"), vec![a]);
        let c = g.push_with_producers(vu_op("c"), vec![a]);
        let d = g.push_with_producers(vu_op("d"), vec![b, c]);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.consumers_of(a), vec![b, c]);
        assert_eq!(g.producers_of(d), &[b, c]);
        assert_eq!(g.topological_order(), vec![a, b, c, d]);
    }

    #[test]
    fn push_with_producers_deduplicates_and_sorts() {
        let mut g = OperatorGraph::new("edges");
        let a = g.push_source(vu_op("a"));
        let b = g.push_source(vu_op("b"));
        let c = g.push_with_producers(vu_op("c"), vec![b, a, b]);
        assert_eq!(g.producers_of(c), &[a, b]);
        assert_eq!(g.sources(), vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "is not an earlier id")]
    fn backward_edges_are_rejected() {
        let mut g = OperatorGraph::new("bad");
        g.push_source(vu_op("a"));
        // Operator 1 naming producer 2: an edge against the id order.
        g.push_with_producers(vu_op("b"), vec![0, 2]);
    }

    #[test]
    fn critical_path_ignores_parallel_branches() {
        let mut g = OperatorGraph::new("cp");
        let a = g.push_source(vu_op("a"));
        let b = g.push_with_producers(vu_op("b"), vec![a]);
        let c = g.push_with_producers(vu_op("c"), vec![a]);
        g.push_with_producers(vu_op("d"), vec![b, c]);
        // Unit costs: the path a -> {b|c} -> d has length 3, not 4.
        assert!((g.critical_path_cost(|_| 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate() {
        let g = sample();
        assert!(g.total_flops() > 2.0 * 256.0 * 256.0 * 256.0);
        assert!(g.total_hbm_bytes() > 0.0);
        assert_eq!(g.total_ici_bytes(), (1 << 20) as f64);
    }

    #[test]
    fn unit_counting() {
        let g = sample();
        assert_eq!(g.count_by_unit(ExecutionUnit::Sa), 1);
        assert_eq!(g.count_by_unit(ExecutionUnit::Vu), 1);
        assert_eq!(g.count_by_unit(ExecutionUnit::Ici), 1);
        assert!((g.collective_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn extend_reassigns_ids_and_remaps_edges() {
        let mut g = sample();
        let mut other = OperatorGraph::new("dag");
        let x = other.push_source(vu_op("x"));
        let y = other.push_source(vu_op("y"));
        other.push_with_producers(vu_op("join"), vec![x, y]);
        let range = g.extend_from(&other);
        assert_eq!(range, 3..6);
        assert_eq!(g.len(), 6);
        assert_eq!(g.operators()[5].id, 5);
        // The appended subgraph is independent: its sources stay sources
        // and its internal fan-in edge is remapped by the offset.
        assert_eq!(g.producers_of(3), &[] as &[usize]);
        assert_eq!(g.producers_of(4), &[] as &[usize]);
        assert_eq!(g.producers_of(5), &[3, 4]);
        assert_eq!(g.sources(), vec![0, 3, 4]);
        assert_eq!(g.topological_order().len(), 6);
    }

    #[test]
    fn empty_graph() {
        let g = OperatorGraph::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.collective_fraction(), 0.0);
        assert_eq!(g.total_flops(), 0.0);
        assert!(g.topological_order().is_empty());
        assert!(g.sources().is_empty());
    }
}
