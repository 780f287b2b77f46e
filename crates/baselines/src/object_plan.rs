//! Object-graph subplans, RHEEMix style.
//!
//! A subplan is a reference-counted binary merge tree over per-operator
//! leaves — the idiomatic object representation a Java optimizer holds
//! (Rheem's `PlanImplementation` graphs). Reading anything out of it means
//! walking the pointer graph; that walk, repeated on every cost call, is
//! what the paper measured at 47% of optimization time.

use std::rc::Rc;

/// One node of an object subplan.
#[derive(Debug)]
pub enum ObjNode {
    /// A single operator placed on a platform.
    Leaf { op: u32, platform: u8 },
    /// The merge of two disjoint subplans.
    Merge {
        left: Rc<ObjNode>,
        right: Rc<ObjNode>,
    },
}

impl ObjNode {
    pub fn leaf(op: u32, platform: u8) -> Rc<ObjNode> {
        Rc::new(ObjNode::Leaf { op, platform })
    }

    pub fn merge(left: Rc<ObjNode>, right: Rc<ObjNode>) -> Rc<ObjNode> {
        Rc::new(ObjNode::Merge { left, right })
    }

    /// Walk the graph, collecting `(op, platform)` placements.
    pub fn collect_into(&self, out: &mut Vec<(u32, u8)>) {
        match self {
            ObjNode::Leaf { op, platform } => out.push((*op, *platform)),
            ObjNode::Merge { left, right } => {
                left.collect_into(out);
                right.collect_into(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_walks_the_merge_tree() {
        let t = ObjNode::merge(
            ObjNode::merge(ObjNode::leaf(0, 1), ObjNode::leaf(1, 0)),
            ObjNode::leaf(2, 1),
        );
        let mut out = Vec::new();
        t.collect_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(0, 1), (1, 0), (2, 1)]);
    }
}
