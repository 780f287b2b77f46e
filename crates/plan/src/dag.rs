//! The logical dataflow DAG (the paper's LOT — logical operator tree,
//! generalized to a DAG) with cardinality propagation.
//!
//! Cardinalities are estimated once, before enumeration, and are
//! assignment-independent: the enumerator and the feature vectors read them
//! as plain `f64` slices.

use crate::op::Operator;

/// Maximum number of operators a plan may hold. Scope bitsets are `u128`.
pub const MAX_OPS: usize = 128;

/// A logical dataflow plan: operators plus directed dataflow edges.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    ops: Vec<Operator>,
    edges: Vec<(u32, u32)>,
    preds: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
    /// Estimated input tuples per operator (sum of predecessors' outputs;
    /// `source_cardinality` for sources).
    in_tuples: Vec<f64>,
    /// Estimated output cardinality per operator.
    out_card: Vec<f64>,
    sealed: bool,
}

impl LogicalPlan {
    pub fn new() -> Self {
        LogicalPlan::default()
    }

    /// Add an operator and return its id.
    pub fn add_op(&mut self, op: Operator) -> u32 {
        assert!(!self.sealed, "plan is sealed");
        assert!(self.ops.len() < MAX_OPS, "plan exceeds {MAX_OPS} operators");
        let id = self.ops.len() as u32;
        self.ops.push(op);
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        id
    }

    /// Add a dataflow edge `from -> to`.
    pub fn connect(&mut self, from: u32, to: u32) {
        assert!(!self.sealed, "plan is sealed");
        assert!(from != to, "self edge");
        assert!((from as usize) < self.ops.len() && (to as usize) < self.ops.len());
        self.edges.push((from, to));
        self.succs[from as usize].push(to);
        self.preds[to as usize].push(from);
    }

    /// Propagate cardinalities and freeze the plan. Panics on cycles.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "plan already sealed");
        let n = self.ops.len();
        let order = self.topo_order();
        self.in_tuples = vec![0.0; n];
        self.out_card = vec![0.0; n];
        for &id in &order {
            let i = id as usize;
            let input = if self.preds[i].is_empty() {
                self.ops[i].source_cardinality
            } else {
                self.preds[i]
                    .iter()
                    .map(|&p| self.out_card[p as usize])
                    .sum()
            };
            self.in_tuples[i] = input;
            self.out_card[i] = input * self.ops[i].selectivity;
        }
        self.sealed = true;
    }

    /// Deterministic Kahn topological order (FIFO, ready operators queued
    /// in ascending id order): the order `seal` propagates cardinalities
    /// in, and the frontier coordinate system the plan splitter
    /// (`robopt_core::split`) cuts over. Panics on cycles.
    pub fn topo_order(&self) -> Vec<u32> {
        let n = self.ops.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &v in &self.succs[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        assert_eq!(order.len(), n, "plan contains a cycle");
        order
    }

    #[inline]
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    pub fn op(&self, id: u32) -> &Operator {
        &self.ops[id as usize]
    }

    #[inline]
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    #[inline]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    #[inline]
    pub fn preds(&self, id: u32) -> &[u32] {
        &self.preds[id as usize]
    }

    #[inline]
    pub fn succs(&self, id: u32) -> &[u32] {
        &self.succs[id as usize]
    }

    /// Estimated input tuples per operator. Requires [`LogicalPlan::seal`].
    #[inline]
    pub fn in_tuples(&self) -> &[f64] {
        assert!(self.sealed, "plan not sealed");
        &self.in_tuples
    }

    /// Estimated output cardinality per operator. Requires [`LogicalPlan::seal`].
    #[inline]
    pub fn out_card(&self) -> &[f64] {
        assert!(self.sealed, "plan not sealed");
        &self.out_card
    }

    /// A juncture operator has more than one input or more than one output
    /// (the paper's pipeline/juncture topology distinction).
    #[inline]
    pub fn is_juncture(&self, id: u32) -> bool {
        self.preds[id as usize].len() > 1 || self.succs[id as usize].len() > 1
    }

    /// True if the undirected dataflow graph is connected (the enumerator
    /// requires this to contract the enumeration graph to a single unit).
    pub fn is_connected(&self) -> bool {
        let n = self.ops.len();
        let mut seen = vec![false; n];
        let Some(first) = seen.first_mut() else {
            return true;
        };
        *first = true;
        let mut stack = vec![0u32];
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.succs[u as usize]
                .iter()
                .chain(self.preds[u as usize].iter())
            {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OperatorKind;

    #[test]
    fn cardinality_propagation_linear_chain() {
        let mut p = LogicalPlan::new();
        let s = p.add_op(Operator::source(OperatorKind::TextFileSource, 1000.0));
        let f = p.add_op(Operator::new(OperatorKind::Filter)); // sel 0.4
        let m = p.add_op(Operator::new(OperatorKind::Map)); // sel 1.0
        p.connect(s, f);
        p.connect(f, m);
        p.seal();
        assert_eq!(p.out_card()[s as usize], 1000.0);
        assert_eq!(p.out_card()[f as usize], 400.0);
        assert_eq!(p.out_card()[m as usize], 400.0);
        assert_eq!(p.in_tuples()[m as usize], 400.0);
        assert!(p.is_connected());
    }

    #[test]
    fn juncture_detection_and_fanin() {
        let mut p = LogicalPlan::new();
        let a = p.add_op(Operator::source(OperatorKind::TableSource, 100.0));
        let b = p.add_op(Operator::source(OperatorKind::TableSource, 200.0));
        let j = p.add_op(Operator::new(OperatorKind::Join)); // sel 0.05
        p.connect(a, j);
        p.connect(b, j);
        p.seal();
        assert!(p.is_juncture(j));
        assert!(!p.is_juncture(a));
        assert_eq!(p.in_tuples()[j as usize], 300.0);
        assert!((p.out_card()[j as usize] - 15.0).abs() < 1e-12);
    }
}
