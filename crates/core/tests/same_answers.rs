//! The enumeration answers the parent commit gave, pinned as literals.
//!
//! PR 21 changed what a merge candidate costs (assignments overlaid per
//! candidate, staging block not re-zeroed, best-fit matrix pool) and must
//! have changed nothing else. The named workloads and the benchmark goldens
//! pin that on a dozen plans; this table pins it on seeded inputs they do
//! not cover: random DAGs of 6–40 operators on `uniform(k)` for k ∈ {2, 3,
//! 5, 8} and on `named()` (availability masks, multi-hop conversions), at
//! split parts {1, 4, 8}, under `ExpectedCost`, `sigma2` and `q0.9` with an
//! oracle whose spread makes the three policies rank differently, plus
//! unpruned runs on ≤ 8 operators. Every literal in [`PARENT`] is the
//! digest of `(assignments, cost bits, EnumStats)` the commit before PR 21
//! printed for that row: `EnumStats` moves if a row is pruned differently,
//! the winner moves if a tie breaks differently.

use robopt_core::{
    AnalyticOracle, CostDistribution, CostOracle, EnumOptions, EnumStats, Enumerator,
    ExecutionPlan, RiskPolicy, SplitOptions,
};
use robopt_plan::{LogicalPlan, Operator, OperatorKind, SplitMix64, N_OPERATOR_KINDS};
use robopt_platforms::PlatformRegistry;
use robopt_vector::{FeatureLayout, RowsView, SigHasher};

/// Analytic means with a spread that grows with the tuples routed through
/// platform 1, so `sigma2` and `q0.9` steer work off it and the three
/// policies exercise different pruning decisions.
struct SpreadOracle {
    inner: AnalyticOracle,
    risky_cell: usize,
}

impl SpreadOracle {
    fn new(registry: &PlatformRegistry, layout: &FeatureLayout) -> Self {
        SpreadOracle {
            inner: AnalyticOracle::for_registry(registry, layout),
            risky_cell: layout.platform_input_tuples(1),
        }
    }
}

impl CostOracle for SpreadOracle {
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn cost_row(&self, feats: &[f64]) -> f64 {
        self.inner.cost_row(feats)
    }
    fn cost_batch(&self, rows: RowsView<'_>, out: &mut Vec<f64>) {
        self.inner.cost_batch(rows, out);
    }
    fn cost_batch_dist(&self, rows: RowsView<'_>, out: &mut CostDistribution) {
        self.inner.cost_batch(rows, &mut out.mean);
        out.fill_point_from_mean();
        for r in 0..rows.rows() {
            let spread = rows.value(r, self.risky_cell) * 1e-5;
            out.std[r] = spread;
            out.q10[r] -= spread;
            out.q90[r] += 1.5 * spread;
        }
    }
}

/// A random connected DAG whose edges reach back at most `reach` operators:
/// every operator reads one of the `reach` before it, one in four reads a
/// second. `workloads::random_connected_dag` draws predecessors from the
/// whole prefix, which at 40 operators × 8 platforms puts a dozen operators
/// on a unit's boundary (8¹² rows); bounded reach bounds the boundary, so
/// the table can cover the long and wide corner in milliseconds.
fn banded_dag(rng: &mut SplitMix64, n: usize, reach: usize) -> LogicalPlan {
    const UNARY: [OperatorKind; 6] = [
        OperatorKind::Map,
        OperatorKind::Filter,
        OperatorKind::FlatMap,
        OperatorKind::Distinct,
        OperatorKind::Sort,
        OperatorKind::ReduceByKey,
    ];
    const BINARY: [OperatorKind; 3] = [
        OperatorKind::Join,
        OperatorKind::Union,
        OperatorKind::Intersect,
    ];
    let mut plan = LogicalPlan::new();
    let card = 1000.0 + rng.next_f64() * 1e6;
    plan.add_op(Operator::source(OperatorKind::TextFileSource, card));
    for i in 1..n {
        let back = reach.min(i);
        let first = i - 1 - rng.gen_range(back);
        let second = i - 1 - rng.gen_range(back);
        let two_inputs = second != first && rng.next_f64() < 0.25;
        let kind = if i == n - 1 {
            OperatorKind::LocalCallbackSink
        } else if two_inputs {
            BINARY[rng.gen_range(BINARY.len())]
        } else {
            UNARY[rng.gen_range(UNARY.len())]
        };
        let id = plan.add_op(Operator::new(kind));
        plan.connect(first as u32, id);
        if two_inputs {
            plan.connect(second as u32, id);
        }
    }
    plan.seal();
    plan
}

const RISKS: [RiskPolicy; 3] = [
    RiskPolicy::ExpectedCost,
    RiskPolicy::MeanPlusKSigma(2.0),
    RiskPolicy::Quantile(0.9),
];

fn digest(exec: &ExecutionPlan, stats: &EnumStats) -> u64 {
    let mut h = SigHasher::new();
    for p in exec.raw_assignments() {
        h.write_u64(u64::from(p));
    }
    h.write_f64_bits(exec.cost);
    for c in [stats.generated, stats.kept, stats.merges, stats.peak_rows] {
        h.write_u64(c);
    }
    h.finish()
}

/// One table row: `plan` on `registry` at `parts` split parts, the three
/// risk policies folded in [`RISKS`] order. `parts == 1` is the serial
/// search.
fn row_digest(plan: &LogicalPlan, registry: &PlatformRegistry, parts: usize, prune: bool) -> u64 {
    let layout = FeatureLayout::new(registry.len(), N_OPERATOR_KINDS);
    let oracle = SpreadOracle::new(registry, &layout);
    let mut h = SigHasher::new();
    for risk in RISKS {
        let opts = EnumOptions::new(registry)
            .with_oracle(&oracle)
            .with_prune(prune)
            .with_risk(risk);
        let split = SplitOptions::new(parts);
        let run = Enumerator::new().enumerate_within(plan, &layout, opts, split, u64::MAX);
        // No search is refused at the `u64::MAX` budget; a refusal would
        // fold 0 and fail its row.
        h.write_u64(run.map_or(0, |(exec, stats)| digest(&exec, &stats)));
    }
    h.finish()
}

/// Digests of every table row, in table order, with a label per row.
fn table() -> Vec<(String, u64)> {
    let mut rng = SplitMix64::new(0x5A3E_A215);
    let mut rows = Vec::new();
    let registries: Vec<(String, PlatformRegistry)> = [2, 3, 5, 8]
        .into_iter()
        .map(|k| (format!("uniform({k})"), PlatformRegistry::uniform(k)))
        .chain([("named()".to_string(), PlatformRegistry::named())])
        .collect();
    for (name, registry) in &registries {
        let reach = if registry.len() > 3 { 2 } else { 3 };
        for n in [6, 13, 24, 40] {
            let plan = banded_dag(&mut rng, n, reach);
            for parts in [1, 4, 8] {
                rows.push((
                    format!("{name} n={n} parts={parts}"),
                    row_digest(&plan, registry, parts, true),
                ));
            }
        }
        // Unpruned: every one of the k^n rows survives every merge.
        let n = if registry.len() > 3 { 5 } else { 8 };
        let plan = banded_dag(&mut rng, n, 2);
        for parts in [1, 2] {
            rows.push((
                format!("{name} n={n} parts={parts} unpruned"),
                row_digest(&plan, registry, parts, false),
            ));
        }
    }
    rows
}

/// What the parent commit (PR 19, `0ba9006`) computed for [`table`].
const PARENT: [u64; 70] = [
    0x27e4_56d8_cc17_8fb8, // uniform(2) n=6 parts=1
    0x27e4_56d8_cc17_8fb8, // uniform(2) n=6 parts=4
    0x27e4_56d8_cc17_8fb8, // uniform(2) n=6 parts=8
    0x6edb_ee6f_272a_e6c4, // uniform(2) n=13 parts=1
    0xe7c0_28b8_9b91_42e6, // uniform(2) n=13 parts=4
    0x6edb_ee6f_272a_e6c4, // uniform(2) n=13 parts=8
    0xd95a_1286_6c17_3bbb, // uniform(2) n=24 parts=1
    0xbd0c_cafa_95ef_29a6, // uniform(2) n=24 parts=4
    0x418c_57f0_a47e_976b, // uniform(2) n=24 parts=8
    0xef29_75c8_c182_1c19, // uniform(2) n=40 parts=1
    0xbc38_8f17_5153_62e9, // uniform(2) n=40 parts=4
    0xa6d0_e197_fcf8_6083, // uniform(2) n=40 parts=8
    0xc6a5_998b_4dc0_15d1, // uniform(2) n=8 parts=1 unpruned
    0x2664_eda9_7947_d59c, // uniform(2) n=8 parts=2 unpruned
    0x4007_8dfa_9387_a89f, // uniform(3) n=6 parts=1
    0x5a71_e080_7918_3b34, // uniform(3) n=6 parts=4
    0xde49_d3a2_e6bf_1fb1, // uniform(3) n=6 parts=8
    0x3e08_c940_d3a2_6e25, // uniform(3) n=13 parts=1
    0x603d_513b_4b1a_c2f1, // uniform(3) n=13 parts=4
    0xef7e_8884_9860_887c, // uniform(3) n=13 parts=8
    0x24bd_86df_d97e_2196, // uniform(3) n=24 parts=1
    0xc4f1_b47d_49e2_b057, // uniform(3) n=24 parts=4
    0xde7b_1c75_f92b_1466, // uniform(3) n=24 parts=8
    0xc46c_e305_7b61_e6cd, // uniform(3) n=40 parts=1
    0xaaca_ffa2_9f81_1c94, // uniform(3) n=40 parts=4
    0x7386_395f_12b4_eb62, // uniform(3) n=40 parts=8
    0xe448_f3cf_159f_20bf, // uniform(3) n=8 parts=1 unpruned
    0x34da_1519_0274_227e, // uniform(3) n=8 parts=2 unpruned
    0x020c_e46a_1210_c3c7, // uniform(5) n=6 parts=1
    0x020c_e46a_1210_c3c7, // uniform(5) n=6 parts=4
    0x020c_e46a_1210_c3c7, // uniform(5) n=6 parts=8
    0x4760_3cc1_809f_f440, // uniform(5) n=13 parts=1
    0xee8c_aa2b_7771_3b4e, // uniform(5) n=13 parts=4
    0x4760_3cc1_809f_f440, // uniform(5) n=13 parts=8
    0x3f31_8053_408f_ea76, // uniform(5) n=24 parts=1
    0x929d_1290_3917_cd87, // uniform(5) n=24 parts=4
    0x929d_1290_3917_cd87, // uniform(5) n=24 parts=8
    0x5ed5_5fde_a96a_c6bd, // uniform(5) n=40 parts=1
    0x72a3_7292_a7d1_d56b, // uniform(5) n=40 parts=4
    0x04ad_463c_dc95_a911, // uniform(5) n=40 parts=8
    0x92bc_cc9b_cb02_f5ab, // uniform(5) n=5 parts=1 unpruned
    0x0e6c_ff05_9a6a_1ccc, // uniform(5) n=5 parts=2 unpruned
    0xc675_889c_6776_4c35, // uniform(8) n=6 parts=1
    0xc675_889c_6776_4c35, // uniform(8) n=6 parts=4
    0xc675_889c_6776_4c35, // uniform(8) n=6 parts=8
    0xa814_ece5_1c8c_14e9, // uniform(8) n=13 parts=1
    0x15a4_90ec_6347_cf20, // uniform(8) n=13 parts=4
    0x9781_104b_b271_6753, // uniform(8) n=13 parts=8
    0xabdd_551e_f433_7183, // uniform(8) n=24 parts=1
    0xab3a_3fe8_5cfb_0e57, // uniform(8) n=24 parts=4
    0x5ea7_b73d_a1a5_7410, // uniform(8) n=24 parts=8
    0x0611_2faf_5e28_129e, // uniform(8) n=40 parts=1
    0xfc07_ce62_a798_6b16, // uniform(8) n=40 parts=4
    0x85e4_2336_5a3e_3df3, // uniform(8) n=40 parts=8
    0x1aab_e6cb_e708_7d70, // uniform(8) n=5 parts=1 unpruned
    0x1aab_e6cb_e708_7d70, // uniform(8) n=5 parts=2 unpruned
    0x7d9c_c703_6f3e_7acc, // named() n=6 parts=1
    0x474f_3376_e10e_e55c, // named() n=6 parts=4
    0x474f_3376_e10e_e55c, // named() n=6 parts=8
    0x9dd5_7aca_e350_9374, // named() n=13 parts=1
    0x7dfd_a9ad_87d5_86d3, // named() n=13 parts=4
    0x9d09_3214_0618_505b, // named() n=13 parts=8
    0xe1be_9523_beae_bcc1, // named() n=24 parts=1
    0xd42d_e907_f768_ecfe, // named() n=24 parts=4
    0x46de_58f8_dbd2_e346, // named() n=24 parts=8
    0x8bb5_cb0f_c28a_6477, // named() n=40 parts=1
    0xbc01_6f29_ed57_0030, // named() n=40 parts=4
    0xddd4_4b0f_d9fd_0395, // named() n=40 parts=8
    0xe099_2abb_1721_57d5, // named() n=5 parts=1 unpruned
    0xe099_2abb_1721_57d5, // named() n=5 parts=2 unpruned
];

#[test]
fn every_row_answers_what_the_parent_commit_answered() {
    let rows = table();
    assert_eq!(rows.len(), PARENT.len(), "table and literals out of step");
    let moved: Vec<String> = rows
        .iter()
        .zip(PARENT)
        .filter(|((_, got), want)| got != want)
        .map(|((label, got), want)| format!("{label}: {got:#018x}, parent {want:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} rows moved:\n{}",
        moved.len(),
        rows.len(),
        moved.join("\n")
    );
}

#[test]
fn the_risk_policies_of_the_table_really_disagree() {
    // Guards the table's reach: if the spread stopped mattering, two thirds
    // of every row would silently re-test ExpectedCost.
    let mut rng = SplitMix64::new(0x5A3E_A215);
    let registry = PlatformRegistry::uniform(3);
    let layout = FeatureLayout::new(3, N_OPERATOR_KINDS);
    let oracle = SpreadOracle::new(&registry, &layout);
    let plan = banded_dag(&mut rng, 13, 3);
    let picks: Vec<Vec<u8>> = RISKS
        .iter()
        .map(|&risk| {
            let opts = EnumOptions::new(&registry)
                .with_oracle(&oracle)
                .with_risk(risk);
            Enumerator::new()
                .enumerate(&plan, &layout, opts)
                .0
                .raw_assignments()
        })
        .collect();
    assert_ne!(picks[0], picks[1], "sigma2 picked the expected-cost plan");
    assert_ne!(picks[0], picks[2], "q0.9 picked the expected-cost plan");
}
