//! Graph-anomaly fixtures for the static schedule analyzer.
//!
//! Every workload builder in this crate produces well-formed operator
//! DAGs, so the *legal-but-suspicious* shapes the analyzer warns about —
//! a producer edge that is transitively implied by the rest of the graph,
//! an operator connected to nothing — never occur naturally in the test
//! corpus. This module constructs them deliberately, through the public
//! [`OperatorGraph`] API (the shapes are legal; they are just smells), so
//! the analyzer's rule catalog can be exercised against known inputs.
//! Defects that the graph API *rejects* by construction (cycles, dangling
//! producer ids) are assembled one layer down, via
//! `npu_compiler::CompiledGraph::from_parts`.
//!
//! These are fixtures, not benchmarks: the operators are small matrix
//! multiplications whose costs are irrelevant — only the edge structure
//! matters. Matmuls are used (rather than elementwise ops) because they
//! always anchor their own fusion group, so the edge structure built here
//! survives compilation unchanged instead of collapsing into one fused
//! anchor.

use crate::dtype::DataType;
use crate::graph::OperatorGraph;
use crate::op::{OpKind, Operator};

/// A small never-fused operator for edge-structure fixtures.
fn vu_op(name: &str) -> Operator {
    Operator::new(
        name,
        OpKind::MatMul { batch: 1, m: 16, k: 16, n: 16, weights_resident: false },
        DataType::Bf16,
    )
}

/// A clean diamond `a → {b, c} → d`: the smallest graph with real fan-out
/// and fan-in and *no* anomalies — the analyzer's negative control.
#[must_use]
pub fn clean_diamond() -> OperatorGraph {
    let mut g = OperatorGraph::new("fixture-clean-diamond");
    let a = g.push_source(vu_op("a"));
    let b = g.push_with_producers(vu_op("b"), vec![a]);
    let c = g.push_with_producers(vu_op("c"), vec![a]);
    g.push_with_producers(vu_op("d"), vec![b, c]);
    g
}

/// A chain `a → b → c` carrying the additional edge `a → c`, which is
/// transitively implied by the path through `b` — the redundant-edge
/// anomaly. Redundant edges are harmless to correctness but inflate
/// dependency fan-in, hide the real critical path from readers, and cost
/// event-queue work on every simulation of the graph.
#[must_use]
pub fn redundant_transitive_edge() -> OperatorGraph {
    let mut g = OperatorGraph::new("fixture-redundant-edge");
    let a = g.push_source(vu_op("a"));
    let b = g.push_with_producers(vu_op("b"), vec![a]);
    g.push_with_producers(vu_op("c"), vec![a, b]);
    g
}

/// A connected chain plus one operator attached to nothing: no producers,
/// no consumers. An isolated operator in a multi-operator graph is almost
/// always a lowering bug (a request subgraph that lost its merge edge, a
/// fused group whose anchor was dropped), so the analyzer flags it as an
/// orphan sink.
#[must_use]
pub fn disconnected_op() -> OperatorGraph {
    let mut g = OperatorGraph::new("fixture-disconnected-op");
    let a = g.push_source(vu_op("a"));
    g.push_with_producers(vu_op("b"), vec![a]);
    g.push_source(vu_op("orphan"));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_diamond_is_clean() {
        let g = clean_diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.topological_order().len(), 4);
    }

    #[test]
    fn redundant_fixture_carries_the_transitive_edge() {
        let g = redundant_transitive_edge();
        // c consumes from both a (redundant) and b (the real path).
        assert_eq!(g.producers_of(2), &[0, 1]);
        assert_eq!(g.topological_order().len(), 3, "still a valid DAG");
    }

    #[test]
    fn disconnected_fixture_has_an_isolated_operator() {
        let g = disconnected_op();
        assert_eq!(g.producers_of(2), &[] as &[usize]);
        assert_eq!(g.consumers_of(2), Vec::<usize>::new());
        assert_eq!(g.sinks(), vec![1, 2]);
    }
}
