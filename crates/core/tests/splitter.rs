//! Splitter cut-quality invariants (DESIGN §9) over the five TDGEN shape
//! families: whatever skeleton `tdgen` samples — pipeline, fan-in, fan-out,
//! diamond, iterative — `split_plan` must return a partition that is
//! exactly that (non-empty, disjoint, covering), classify every edge into
//! exactly one bucket, respect the seam-width cap, and never cut through a
//! `RepeatLoop` protected region.

use robopt_core::{loop_regions, split_plan, PlanSplit, SplitOptions, MAX_CUT_EDGES};
use robopt_plan::{LogicalPlan, SplitMix64};
use robopt_platforms::PlatformRegistry;
use robopt_tdgen::{sample_skeleton, ShapeKind};
use robopt_vector::Scope;

/// Crossing-edge count of each cut, from `parts` and `seam_edges`: a seam
/// edge from part `a` to part `b` crosses cuts `a..b`.
fn cut_sizes(plan: &LogicalPlan, split: &PlanSplit) -> Vec<u32> {
    let part_of = |op| split.parts.iter().position(|s| s.contains(op));
    let mut sizes = vec![0u32; split.len().saturating_sub(1)];
    for &e in &split.seam_edges {
        let (u, v) = plan.edges()[e as usize];
        if let (Some(a), Some(b)) = (part_of(u), part_of(v)) {
            sizes[a..b].iter_mut().for_each(|size| *size += 1);
        }
    }
    sizes
}

#[test]
fn split_invariants_hold_on_every_tdgen_shape_family() {
    let registry = PlatformRegistry::uniform(3);
    let mut rng = SplitMix64::new(0x5EED_5117);
    for shape in ShapeKind::ALL {
        for round in 0..12 {
            let n_ops = shape.min_ops() + rng.gen_range(28);
            let plan = sample_skeleton(&mut rng, &registry, shape, n_ops).instantiate(1e5);
            let n = plan.n_ops();
            let opts = SplitOptions::new(2 + rng.gen_range(7));
            let split = split_plan(&plan, opts);
            let tag = format!("{} round {round} (n={n}, K={})", shape.name(), opts.parts);

            // Partition: parts non-empty, pairwise disjoint, union = plan.
            assert!(!split.is_empty(), "{tag}: no parts");
            assert!(split.len() <= opts.parts, "{tag}: more parts than asked");
            let mut union = Scope::default();
            for (i, part) in split.parts.iter().enumerate() {
                assert!(!part.is_empty(), "{tag}: part {i} empty");
                assert_eq!(union.0 & part.0, 0, "{tag}: part {i} overlaps");
                union = union.union(*part);
            }
            assert_eq!(union, Scope::full(n), "{tag}: parts miss operators");

            // Edge classification: every edge in exactly one bucket, part
            // edges internal, seam edges crossing.
            let classified: usize =
                split.part_edges.iter().map(Vec::len).sum::<usize>() + split.seam_edges.len();
            assert_eq!(classified, plan.edges().len(), "{tag}: edges lost");
            for (p, edges) in split.part_edges.iter().enumerate() {
                for &e in edges {
                    let (u, v) = plan.edges()[e as usize];
                    assert!(
                        split.parts[p].contains(u) && split.parts[p].contains(v),
                        "{tag}: part edge {e} leaves part {p}"
                    );
                }
            }
            for &e in &split.seam_edges {
                let (u, v) = plan.edges()[e as usize];
                let pu = split.parts.iter().position(|s| s.contains(u));
                let pv = split.parts.iter().position(|s| s.contains(v));
                assert_ne!(pu, pv, "{tag}: seam edge {e} does not cross parts");
            }

            // Cut quality: one accepted cut per extra part, each within the
            // seam-width cap.
            let cuts = cut_sizes(&plan, &split);
            assert_eq!(cuts.len(), split.len() - 1, "{tag}: cut count");
            for (i, &c) in cuts.iter().enumerate() {
                assert!(c >= 1, "{tag}: cut {i} crosses no edge");
                assert!(
                    c <= MAX_CUT_EDGES,
                    "{tag}: cut {i} width {c} > cap {MAX_CUT_EDGES}"
                );
            }

            // Protected regions: a RepeatLoop and its downstream body land
            // in one part, never straddling a cut.
            for (r, region) in loop_regions(&plan).iter().enumerate() {
                let holders = split
                    .parts
                    .iter()
                    .filter(|part| part.0 & region.0 != 0)
                    .count();
                assert_eq!(holders, 1, "{tag}: loop region {r} cut apart");
            }

            // Determinism: same plan + options, same split.
            let again = split_plan(&plan, opts);
            assert_eq!(again.parts, split.parts, "{tag}: nondeterministic parts");
            assert_eq!(again.seam_edges, split.seam_edges, "{tag}: seams");
            assert_eq!(cut_sizes(&plan, &again), cuts, "{tag}: cut sizes");
        }
    }
}
