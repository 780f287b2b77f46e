//! Independent single-threaded reference executor.
//!
//! Applies the canonical operator semantics of [`crate::data`] with the
//! most naive execution strategy available: every operator materializes
//! its whole output, sequential loops, keyed operators as a full `sort_by`
//! and a fold over the sorted stream (where the engine fuses narrow chains
//! into hash-table accumulators), scatter-based PageRank instead of CSR
//! gather. No threads, no chunking, no partitioning, no fusion. The engine
//! correctness tests assert the multi-threaded [`crate::Engine`]
//! reproduces these outputs **byte-for-byte** at every worker count — any
//! divergence means the engine's execution machinery (not the semantics)
//! is wrong.
//!
//! Platform assignments are irrelevant here: availability is an engine
//! concern; the reference defines what the data looks like when a plan is
//! executable at all.

use robopt_plan::{rng::mix64, LogicalPlan, OperatorKind};

use crate::data::{
    assign_point, digest_terminals, flat_map_record, keep_record, map_record, point_of, record_cmp,
    source_record, Record, Text, FILTER_SALT, PAGERANK_DST_SALT, SAMPLE_SALT,
};
use crate::exec::{
    aggregate_sum, cartesian, clamp_rows, global_max, intersect_sorted, join_sorted,
};

/// Execute `plan` sequentially; returns the terminal streams (op-id
/// ascending, sinks capture their input) and the folded output digest.
pub fn execute_reference(
    plan: &LogicalPlan,
    seed: u64,
    max_source_rows: u64,
) -> (Vec<(u32, Vec<Record>)>, u64) {
    let n = plan.n_ops();
    let mut outputs = reference_outputs(plan, seed, max_source_rows);
    let mut terminals = Vec::new();
    for op in 0..n as u32 {
        if plan.succs(op).is_empty() {
            let records = outputs
                .get_mut(op as usize)
                .map(std::mem::take)
                .unwrap_or_default();
            terminals.push((op, records));
        }
    }
    let digest = digest_terminals(&terminals);
    (terminals, digest)
}

/// Every operator's whole output stream, in op-id order — what the
/// engine's per-operator `output_rows` count.
pub fn reference_outputs(plan: &LogicalPlan, seed: u64, max_source_rows: u64) -> Vec<Vec<Record>> {
    let mut outputs: Vec<Vec<Record>> = vec![Vec::new(); plan.n_ops()];
    for op in plan.topo_order() {
        let out = run_op(plan, op, seed, max_source_rows, &outputs);
        if let Some(slot) = outputs.get_mut(op as usize) {
            *slot = out;
        }
    }
    outputs
}

/// How [`fold_groups`] reduces each key group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupMode {
    /// `ReduceByKey`: sum numeric payloads in sorted order.
    Sum,
    /// `GroupByKey`: count group members.
    Count,
}

/// Fold a sorted stream into one record per key: `(key, sum-or-count,
/// first text of the group)`. Sorted-order accumulation keeps float sums
/// canonical.
pub(crate) fn fold_groups(sorted: Vec<Record>, mode: GroupMode) -> Vec<Record> {
    let mut out = Vec::new();
    let mut iter = sorted.into_iter();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut key = first.key;
    let mut acc = first.num;
    let mut count = 1u64;
    let mut text = first.text;
    let emit = |key: u64, acc: f64, count: u64, text: Text, out: &mut Vec<Record>| {
        out.push(Record {
            key,
            num: match mode {
                GroupMode::Sum => acc,
                GroupMode::Count => count as f64,
            },
            text,
        });
    };
    for r in iter {
        if r.key == key {
            acc += r.num;
            count += 1;
        } else {
            emit(key, acc, count, text, &mut out);
            key = r.key;
            acc = r.num;
            count = 1;
            text = r.text;
        }
    }
    emit(key, acc, count, text, &mut out);
    out
}

fn run_op(
    plan: &LogicalPlan,
    op: u32,
    seed: u64,
    max_source_rows: u64,
    outputs: &[Vec<Record>],
) -> Vec<Record> {
    let o = plan.op(op);
    let preds = plan.preds(op);
    let gather = |ids: &[u32]| -> Vec<Record> {
        let mut out = Vec::new();
        for &p in ids {
            if let Some(stream) = outputs.get(p as usize) {
                out.extend(stream.iter().cloned());
            }
        }
        out
    };
    match o.kind {
        OperatorKind::TextFileSource
        | OperatorKind::CollectionSource
        | OperatorKind::TableSource => {
            let rows = clamp_rows(o.source_cardinality, max_source_rows);
            (0..rows)
                .map(|row| source_record(o.kind, seed, op, row, rows))
                .collect()
        }
        OperatorKind::Map | OperatorKind::MapPartitions => {
            gather(preds).iter().map(map_record).collect()
        }
        OperatorKind::Cache
        | OperatorKind::Broadcast
        | OperatorKind::LocalCallbackSink
        | OperatorKind::Union => gather(preds),
        OperatorKind::FlatMap => {
            let mut out = Vec::new();
            for r in &gather(preds) {
                flat_map_record(r, &mut out);
            }
            out
        }
        OperatorKind::Filter => {
            let sel = o.selectivity;
            gather(preds)
                .into_iter()
                .filter(|r| keep_record(r, sel, FILTER_SALT))
                .collect()
        }
        OperatorKind::Sample => {
            let sel = o.selectivity;
            gather(preds)
                .into_iter()
                .filter(|r| keep_record(r, sel, SAMPLE_SALT))
                .collect()
        }
        OperatorKind::Sort => {
            let mut v = gather(preds);
            v.sort_by(record_cmp);
            v
        }
        OperatorKind::Distinct => {
            let mut v = gather(preds);
            v.sort_by(record_cmp);
            v.dedup_by(|a, b| {
                a.key == b.key && a.num.to_bits() == b.num.to_bits() && a.text == b.text
            });
            v
        }
        OperatorKind::ReduceByKey => {
            let mut v = gather(preds);
            v.sort_by(record_cmp);
            fold_groups(v, GroupMode::Sum)
        }
        OperatorKind::GroupByKey => {
            let mut v = gather(preds);
            v.sort_by(record_cmp);
            fold_groups(v, GroupMode::Count)
        }
        OperatorKind::Aggregate => aggregate_sum(&gather(preds)),
        OperatorKind::GlobalReduce => global_max(&gather(preds)),
        OperatorKind::Count => {
            vec![Record {
                key: 0,
                num: gather(preds).len() as f64,
                text: Text::new(),
            }]
        }
        OperatorKind::Join => {
            let mut a = gather(preds.get(..1).unwrap_or(&[]));
            let mut b = gather(preds.get(1..).unwrap_or(&[]));
            a.sort_by(record_cmp);
            b.sort_by(record_cmp);
            join_sorted(a, b)
        }
        OperatorKind::Intersect => {
            let mut a = gather(preds.get(..1).unwrap_or(&[]));
            let mut b = gather(preds.get(1..).unwrap_or(&[]));
            a.sort_by(record_cmp);
            b.sort_by(record_cmp);
            intersect_sorted(a, b)
        }
        OperatorKind::CartesianProduct => {
            let a = gather(preds.get(..1).unwrap_or(&[]));
            let b = gather(preds.get(1..).unwrap_or(&[]));
            cartesian(&a, &b)
        }
        OperatorKind::ZipWithId => gather(preds)
            .into_iter()
            .enumerate()
            .map(|(i, r)| Record {
                key: i as u64,
                num: r.num,
                text: r.text,
            })
            .collect(),
        OperatorKind::RepeatLoop => {
            let input = gather(preds);
            if o.iterations == 0 {
                return input;
            }
            let textual = input.first().map(|r| !r.text.is_empty()).unwrap_or(false);
            if textual {
                pagerank_scatter(&input, o.iterations)
            } else {
                kmeans_sequential(&input, o.iterations)
            }
        }
    }
}

/// Scatter-based PageRank: one sequential pass over the edge list per
/// iteration, accumulating into the destination. Matches the engine's CSR
/// gather exactly — per destination, contributions arrive in edge-stream
/// order either way.
fn pagerank_scatter(input: &[Record], iters: u32) -> Vec<Record> {
    let n_e = input.len();
    if n_e == 0 {
        return Vec::new();
    }
    let n = (n_e / 8).clamp(8, 65_536);
    let nu = n as u64;
    let edges: Vec<(usize, usize)> = input
        .iter()
        .map(|r| {
            (
                (r.key % nu) as usize,
                (mix64(r.key ^ PAGERANK_DST_SALT) % nu) as usize,
            )
        })
        .collect();
    let mut outdeg = vec![0u32; n];
    for &(u, _) in &edges {
        if let Some(d) = outdeg.get_mut(u) {
            *d += 1;
        }
    }
    let base = 0.15 / n as f64;
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let contrib: Vec<f64> = rank
            .iter()
            .zip(&outdeg)
            .map(|(r, &d)| if d > 0 { r / f64::from(d) } else { 0.0 })
            .collect();
        let mut acc = vec![0.0f64; n];
        for &(u, v) in &edges {
            let c = contrib.get(u).copied().unwrap_or(0.0);
            if let Some(a) = acc.get_mut(v) {
                *a += c;
            }
        }
        rank = acc.iter().map(|&s| base + 0.85 * s).collect();
    }
    rank.iter()
        .enumerate()
        .map(|(v, r)| Record {
            key: v as u64,
            num: *r,
            text: Text::new(),
        })
        .collect()
}

/// Fully sequential Lloyd iterations with the shared per-point assignment.
fn kmeans_sequential(input: &[Record], iters: u32) -> Vec<Record> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let pts: Vec<(f64, f64)> = input.iter().map(point_of).collect();
    let k = 8usize.min(n);
    let mut centroids: Vec<(f64, f64)> = (0..k)
        .map(|j| pts.get(j * n / k).copied().unwrap_or((0.0, 0.0)))
        .collect();
    let mut assign: Vec<usize> = vec![0; n];
    for _ in 0..iters {
        for (i, &(x, y)) in pts.iter().enumerate() {
            if let Some(slot) = assign.get_mut(i) {
                *slot = assign_point(x, y, &centroids);
            }
        }
        let mut sums = vec![(0.0f64, 0.0f64, 0u64); k];
        for (i, &(x, y)) in pts.iter().enumerate() {
            let a = assign.get(i).copied().unwrap_or(0);
            if let Some(s) = sums.get_mut(a) {
                s.0 += x;
                s.1 += y;
                s.2 += 1;
            }
        }
        for (j, &(sx, sy, c)) in sums.iter().enumerate() {
            if c > 0 {
                if let Some(cent) = centroids.get_mut(j) {
                    *cent = (sx / c as f64, sy / c as f64);
                }
            }
        }
    }
    input
        .iter()
        .zip(&assign)
        .map(|(r, &a)| Record {
            key: a as u64,
            num: r.num,
            text: Text::new(),
        })
        .collect()
}
