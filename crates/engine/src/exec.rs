//! The multi-threaded in-memory dataflow executor — the "Java platform"
//! made real.
//!
//! [`Engine`] really moves [`Record`]s: WordCount counts actual generated
//! words, GroupBy groups them, and `RepeatLoop` runs PageRank or k-means
//! kernels with per-iteration loop overheads. Parallelism is
//! order-preserving by construction, so **outputs are byte-identical
//! across worker counts**:
//!
//! * operators that build a new stream process contiguous index ranges
//!   (`par_ranges`) and concatenate results in range order, operators that
//!   rewrite the stream they own process contiguous chunks of it in place
//!   (`par_chunks`) — both identical to the sequential pass;
//! * every keyed operator is sort-based under the total order
//!   [`record_cmp`]; sorting chunks in parallel and then merging them
//!   reproduces the plain sort byte-for-byte — stable or not — because
//!   equal elements are fully identical;
//! * all floating-point accumulation happens sequentially in canonical
//!   (sorted or stream) order — threads never race on a sum;
//! * sources seed each record by row index, never by partition.
//!
//! Timings are the one non-deterministic output: `compute_seconds` is
//! measured wall clock, while startup/fixed/conversion/loop-sync overheads
//! are deterministically modeled on the simulator's calibration
//! ([`C_FIXED`]) scaled by [`OVERHEAD_SCALE`] (one process stands in for a
//! cluster). Timings land only in the [`ExecutionReport`] — they are
//! **never** digested.
//!
//! Records are moved, not copied: an operator takes its producer's buffer
//! when it is the last one to read it and borrows or clones it otherwise
//! ([`Buffers::input`]), so a buffer lives from the operator that filled
//! it to the last operator that reads it and no longer.

use std::borrow::Cow;

use robopt_plan::{rng::mix64, LogicalPlan, OperatorKind};
use robopt_platforms::simulator::{C_FIXED, LOOP_SYNC_FACTOR};
use robopt_platforms::{
    ExecutionBackend, ExecutionReport, OperatorReport, PlatformId, PlatformRegistry,
};

use crate::data::{
    assign_point, digest_terminals, flat_map_len, flat_map_record, keep_record, point_of,
    record_cmp, rekey_record, source_record, Record, Text, FILTER_SALT, PAGERANK_DST_SALT,
    SAMPLE_SALT,
};

/// Default cap on generated source rows — bounds memory and wall time for
/// plans whose specs claim cluster-scale cardinalities.
pub const DEFAULT_MAX_SOURCE_ROWS: u64 = 200_000;

/// Scale applied to modeled overheads: one process stands in for the
/// simulated 10-node cluster, so startup/fixed/conversion charges shrink
/// to stay commensurate with single-node measured compute while still
/// dominating the platform ranking.
pub const OVERHEAD_SCALE: f64 = 0.02;

/// Caps keeping pair-producing operators polynomial: per-key join fanout
/// and per-side cartesian fanout.
pub(crate) const JOIN_GROUP_CAP: usize = 8;
pub(crate) const CARTESIAN_SIDE_CAP: usize = 64;

/// PageRank damping factor.
pub(crate) const PAGERANK_DAMPING: f64 = 0.85;

/// k-means cluster count.
pub(crate) const KMEANS_K: usize = 8;

// Wall-clock sampling for measured operator timings. Isolated here so the
// rest of the crate stays free of clock reads.
use std::time::Instant;

#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "measured engine timings are reported-only telemetry (ExecutionReport), never digested or cached, and excluded from all determinism digests"
)]
fn clock_now() -> Instant {
    Instant::now()
}

#[inline]
fn clock_elapsed(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The real in-memory execution backend.
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    registry: &'a PlatformRegistry,
    workers: usize,
    seed: u64,
    max_source_rows: u64,
}

/// Everything one engine run produced: the terminal record streams (op-id
/// ascending) plus the timing/cardinality report.
#[derive(Debug, Clone)]
pub struct ExecutionOutput {
    /// `(op id, records)` for every operator with no successors; sinks
    /// capture the records delivered to them.
    pub terminals: Vec<(u32, Vec<Record>)>,
    /// Timings, cardinalities, and the output digest.
    pub report: ExecutionReport,
}

impl<'a> Engine<'a> {
    /// An engine over `registry` with 1 worker and the default row cap.
    pub fn new(registry: &'a PlatformRegistry) -> Self {
        Engine {
            registry,
            workers: 1,
            seed: 0xE6_91_4E,
            max_source_rows: DEFAULT_MAX_SOURCE_ROWS,
        }
    }

    /// Worker threads for partition-parallel operators (≥ 1). Changes wall
    /// time only — never output bytes.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Data-generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Cap on generated rows per source operator (≥ 1).
    pub fn with_max_source_rows(mut self, cap: u64) -> Self {
        self.max_source_rows = cap.max(1);
        self
    }

    /// The registry this engine executes against.
    #[inline]
    pub fn registry(&self) -> &PlatformRegistry {
        self.registry
    }

    /// The data-generation seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-source row cap.
    #[inline]
    pub fn max_source_rows(&self) -> u64 {
        self.max_source_rows
    }

    /// Run `plan` and keep the terminal record streams (the trait method
    /// [`ExecutionBackend::execute`] drops them).
    pub fn execute_collect(
        &self,
        plan: &LogicalPlan,
        assignments: &[PlatformId],
    ) -> ExecutionOutput {
        let n = plan.n_ops();
        let infeasible = || ExecutionOutput {
            terminals: Vec::new(),
            report: ExecutionReport::infeasible("engine"),
        };
        if assignments.len() != n {
            return infeasible();
        }
        // Feasibility first: operator availability and conversion paths.
        if !self.registry.feasible(plan, |i| assignments[i]) {
            return infeasible();
        }

        // Execute in topological order, measuring wall time per operator.
        // An operator's window includes freeing the inputs it read last, and
        // its row count is taken now: its buffer may be gone by the end.
        let mut buffers = Buffers {
            records: vec![Vec::new(); n],
            consumers: (0..n as u32).map(|op| plan.succs(op).len()).collect(),
        };
        let mut measured = vec![0.0f64; n];
        let mut rows = vec![0u64; n];
        for op in plan.topo_order() {
            let i = op as usize;
            let p = assignments[i];
            let w = self.op_workers(p);
            let started = clock_now();
            let out = self.run_op(plan, op, &mut buffers, w);
            measured[i] = clock_elapsed(started);
            rows[i] = out.len() as u64;
            buffers.records[i] = out;
        }

        // Deterministically modeled overheads on the simulator calibration.
        let mut overhead = 0.0f64;
        let mut per_op_overhead = vec![0.0f64; n];
        let mut used_mask = 0u8;
        for op in 0..n as u32 {
            let i = op as usize;
            let p = assignments[i];
            used_mask |= 1u8 << p.index();
            let o = plan.op(op);
            let loop_fixed = if o.kind == OperatorKind::RepeatLoop && o.iterations >= 1 {
                1.0 + LOOP_SYNC_FACTOR * f64::from(o.iterations)
            } else {
                1.0
            };
            let fixed =
                self.registry.platform(p).fixed_cost * C_FIXED * loop_fixed * OVERHEAD_SCALE;
            per_op_overhead[i] = fixed;
            overhead += fixed;
        }
        for p in self.registry.ids() {
            if used_mask & (1u8 << p.index()) != 0 {
                overhead += self.registry.platform(p).startup_s * OVERHEAD_SCALE;
            }
        }
        for &(u, v) in plan.edges() {
            let (pu, pv) = (assignments[u as usize], assignments[v as usize]);
            if pu != pv {
                let c = self
                    .registry
                    .conversion_cost(pu, pv, rows[u as usize] as f64);
                if c.is_finite() {
                    overhead += c * C_FIXED * OVERHEAD_SCALE;
                }
            }
        }

        let compute: f64 = measured.iter().sum();
        let per_op: Vec<OperatorReport> = (0..n)
            .map(|i| OperatorReport {
                seconds: measured[i] + per_op_overhead[i],
                output_rows: rows[i],
            })
            .collect();

        // Nothing consumed a terminal's buffer, so it is still there.
        let mut terminals: Vec<(u32, Vec<Record>)> = Vec::new();
        for op in 0..n as u32 {
            if plan.succs(op).is_empty() {
                terminals.push((op, std::mem::take(&mut buffers.records[op as usize])));
            }
        }
        let output_rows: u64 = terminals.iter().map(|(_, r)| r.len() as u64).sum();
        let output_digest = digest_terminals(&terminals);

        ExecutionOutput {
            terminals,
            report: ExecutionReport {
                backend: "engine",
                seconds: compute + overhead,
                compute_seconds: compute,
                overhead_seconds: overhead,
                feasible: true,
                measured: true,
                output_rows,
                output_digest,
                per_op,
            },
        }
    }

    /// Effective worker count for an operator on platform `p`: the engine's
    /// workers capped by the platform's modeled parallelism (Java streams
    /// run single-threaded, Spark operators fan out).
    fn op_workers(&self, p: PlatformId) -> usize {
        let par = self.registry.platform(p).parallelism.max(1.0) as usize;
        self.workers.min(par.max(1)).max(1)
    }

    fn run_op(&self, plan: &LogicalPlan, op: u32, buffers: &mut Buffers, w: usize) -> Vec<Record> {
        let o = plan.op(op);
        let preds = plan.preds(op);
        // Binary inputs: first predecessor vs everything after it.
        let (first, rest) = preds.split_at(preds.len().min(1));
        match o.kind {
            OperatorKind::TextFileSource
            | OperatorKind::CollectionSource
            | OperatorKind::TableSource => {
                let rows = clamp_rows(o.source_cardinality, self.max_source_rows);
                let (kind, seed) = (o.kind, self.seed);
                par_ranges(w, rows as usize, move |range, out| {
                    out.reserve(range.len());
                    for row in range {
                        out.push(source_record(kind, seed, op, row as u64, rows));
                    }
                })
            }
            OperatorKind::Map | OperatorKind::MapPartitions => {
                let mut records = buffers.input(preds).into_owned();
                par_chunks(w, &mut records, |_, chunk| {
                    chunk.iter_mut().for_each(rekey_record);
                });
                records
            }
            OperatorKind::Cache
            | OperatorKind::Broadcast
            | OperatorKind::Union
            | OperatorKind::LocalCallbackSink => buffers.input(preds).into_owned(),
            OperatorKind::FlatMap => {
                let input = buffers.input(preds);
                par_ranges(w, input.len(), |range, out| {
                    let part = &input[range];
                    out.reserve(part.iter().map(flat_map_len).sum());
                    for r in part {
                        flat_map_record(r, out);
                    }
                })
            }
            OperatorKind::Filter | OperatorKind::Sample => {
                let salt = if o.kind == OperatorKind::Filter {
                    FILTER_SALT
                } else {
                    SAMPLE_SALT
                };
                let sel = o.selectivity;
                let mut records = buffers.input(preds).into_owned();
                par_retain(w, &mut records, |r| keep_record(r, sel, salt));
                records
            }
            OperatorKind::Sort => par_sort(w, buffers.input(preds).into_owned()),
            OperatorKind::Distinct => {
                let mut sorted = par_sort(w, buffers.input(preds).into_owned());
                sorted.dedup_by(|a, b| {
                    a.key == b.key && a.num.to_bits() == b.num.to_bits() && a.text == b.text
                });
                // Usually few of many survive. Move them to a buffer their
                // own size and free the sorted one whole: `shrink_to_fit`
                // would hand the allocator back a tail, and glibc only
                // starts recycling a large block once it has been freed at
                // the size the next run asks for — until then every run
                // maps, and page-faults, a fresh one.
                let mut unique = Vec::with_capacity(sorted.len());
                unique.append(&mut sorted);
                unique
            }
            OperatorKind::ReduceByKey | OperatorKind::GroupByKey => {
                let mode = if o.kind == OperatorKind::ReduceByKey {
                    GroupMode::Sum
                } else {
                    GroupMode::Count
                };
                fold_groups(par_sort(w, buffers.input(preds).into_owned()), mode)
            }
            OperatorKind::Aggregate => aggregate_sum(&buffers.input(preds)),
            OperatorKind::GlobalReduce => global_max(&buffers.input(preds)),
            OperatorKind::Count => {
                vec![Record {
                    key: 0,
                    num: buffers.input(preds).len() as f64,
                    text: Text::new(),
                }]
            }
            OperatorKind::Join | OperatorKind::Intersect => {
                let a = buffers.input(first).into_owned();
                let b = buffers.input(rest).into_owned();
                let (a, b) = sort_sides(w, a, b);
                if o.kind == OperatorKind::Join {
                    join_sorted(a, b)
                } else {
                    intersect_sorted(a, b)
                }
            }
            OperatorKind::CartesianProduct => {
                // Only the head of each side is read: copy it, so one side
                // is not still lent out while the other is claimed (they
                // may be the same buffer).
                let head = |side: Cow<'_, [Record]>| -> Vec<Record> {
                    side.iter().take(CARTESIAN_SIDE_CAP).cloned().collect()
                };
                let a = head(buffers.input(first));
                let b = head(buffers.input(rest));
                cartesian(&a, &b)
            }
            OperatorKind::ZipWithId => {
                let mut records = buffers.input(preds).into_owned();
                par_chunks(w, &mut records, |at, chunk| {
                    for (i, r) in chunk.iter_mut().enumerate() {
                        r.key = (at + i) as u64;
                    }
                });
                records
            }
            OperatorKind::RepeatLoop => {
                let input = buffers.input(preds);
                if o.iterations == 0 {
                    return input.into_owned(); // inert pass-through, matching the simulator
                }
                let textual = input.first().map(|r| !r.text.is_empty()).unwrap_or(false);
                if textual {
                    self.pagerank(w, &input, o.iterations)
                } else {
                    self.kmeans(w, &input, o.iterations)
                }
            }
        }
    }

    /// PageRank kernel: the input stream is an edge list (one record per
    /// edge), node count ≈ edges / 8. Per iteration, per-node rank sums
    /// accumulate in edge-stream order (CSR grouped stably by destination),
    /// so parallel gather matches the reference's sequential scatter.
    fn pagerank(&self, w: usize, input: &[Record], iters: u32) -> Vec<Record> {
        let n_e = input.len();
        if n_e == 0 {
            return Vec::new();
        }
        let n = (n_e / 8).clamp(8, 65_536);
        let nu = n as u64;
        let edges: Vec<(u32, u32)> = input
            .iter()
            .map(|r| {
                (
                    (r.key % nu) as u32,
                    (mix64(r.key ^ PAGERANK_DST_SALT) % nu) as u32,
                )
            })
            .collect();
        let mut outdeg = vec![0u32; n];
        let mut indeg = vec![0u32; n];
        for &(u, v) in &edges {
            outdeg[u as usize] += 1;
            indeg[v as usize] += 1;
        }
        let mut start = vec![0usize; n + 1];
        for v in 0..n {
            start[v + 1] = start[v] + indeg[v] as usize;
        }
        let mut srcs = vec![0u32; n_e];
        let mut fill = start.clone();
        for &(u, v) in &edges {
            srcs[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        let base = 0.15 / n as f64;
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iters {
            let contrib: Vec<f64> = rank
                .iter()
                .zip(&outdeg)
                .map(|(r, &d)| if d > 0 { r / f64::from(d) } else { 0.0 })
                .collect();
            rank = par_ranges(w, n, |range, seg| {
                seg.reserve(range.len());
                for v in range {
                    let mut s = 0.0f64;
                    for &u in srcs.get(start[v]..start[v + 1]).unwrap_or(&[]) {
                        s += contrib.get(u as usize).copied().unwrap_or(0.0);
                    }
                    seg.push(base + PAGERANK_DAMPING * s);
                }
            });
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

    /// k-means kernel (Lloyd): parallel nearest-centroid assignment,
    /// sequential canonical centroid update in stream order.
    fn kmeans(&self, w: usize, input: &[Record], iters: u32) -> Vec<Record> {
        let n = input.len();
        if n == 0 {
            return Vec::new();
        }
        let pts: Vec<(f64, f64)> = input.iter().map(point_of).collect();
        let k = KMEANS_K.min(n);
        let mut centroids: Vec<(f64, f64)> = (0..k)
            .map(|j| pts.get(j * n / k).copied().unwrap_or((0.0, 0.0)))
            .collect();
        let mut assign: Vec<usize> = vec![0; n];
        for _ in 0..iters {
            assign = par_ranges(w, n, |range, out| {
                out.reserve(range.len());
                let nearest = |&(x, y): &(f64, f64)| assign_point(x, y, &centroids);
                out.extend(pts[range].iter().map(nearest));
            });
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
}

impl ExecutionBackend for Engine<'_> {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn execute(&self, plan: &LogicalPlan, assignments: &[PlatformId]) -> ExecutionReport {
        self.execute_collect(plan, assignments).report
    }
}

/// Clamp a claimed source cardinality to whole rows under the cap.
pub(crate) fn clamp_rows(cardinality: f64, cap: u64) -> u64 {
    let rows = cardinality.round().max(0.0) as u64;
    rows.min(cap)
}

/// What the operators run so far have produced and not yet handed on: one
/// buffer per operator, and how many consumers have still to read it
/// (`plan.succs(op).len()` to start with, so a double edge counts twice).
struct Buffers {
    records: Vec<Vec<Record>>,
    consumers: Vec<usize>,
}

impl Buffers {
    /// The input of an operator fed by `preds`, in `preds` order. An
    /// operator that needs ownership calls `into_owned` on it, one that
    /// only reads derefs it; either way whatever was moved out is freed
    /// when the operator is done with it.
    fn input(&mut self, preds: &[u32]) -> Cow<'_, [Record]> {
        match preds {
            [p] => self.claim(*p),
            _ => Cow::Owned(self.gather(preds)),
        }
    }

    /// One consumer's read of `p`'s buffer: moved out if no other consumer
    /// is left to read it, lent otherwise.
    fn claim(&mut self, p: u32) -> Cow<'_, [Record]> {
        let p = p as usize;
        self.consumers[p] -= 1;
        if self.consumers[p] == 0 {
            Cow::Owned(std::mem::take(&mut self.records[p]))
        } else {
            Cow::Borrowed(&self.records[p])
        }
    }

    /// Concatenate several producers' buffers in `preds` order.
    fn gather(&mut self, preds: &[u32]) -> Vec<Record> {
        let total = preds.iter().map(|&p| self.records[p as usize].len()).sum();
        let mut out = Vec::with_capacity(total);
        for &p in preds {
            match self.claim(p) {
                Cow::Owned(mut moved) => out.append(&mut moved),
                Cow::Borrowed(lent) => out.extend_from_slice(lent),
            }
        }
        out
    }
}

/// The fan-out that builds a stream: split `0..n` into `w` contiguous
/// ranges, run `f` on each — on its own scoped thread when `w > 1` — and
/// concatenate what the ranges pushed in range order, so the result is
/// what `f(0..n)` alone would have produced whatever the scheduling.
fn par_ranges<T: Send>(
    w: usize,
    n: usize,
    f: impl Fn(std::ops::Range<usize>, &mut Vec<T>) + Sync,
) -> Vec<T> {
    let mut out = Vec::new();
    if w <= 1 {
        f(0..n, &mut out);
        // An output lives until its last consumer has run: give back the
        // slack `push` growth left, as the concatenation below does.
        out.shrink_to_fit();
        return out;
    }
    let mut parts: Vec<Vec<T>> = (0..w).map(|_| Vec::new()).collect();
    std::thread::scope(|s| {
        for (c, part) in parts.iter_mut().enumerate() {
            let f = &f;
            s.spawn(move || f(c * n / w..(c + 1) * n / w, part));
        }
    });
    out.reserve(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// The fan-out that rewrites a stream in place: split `records` into up to
/// `w` contiguous chunks and run `f(offset, chunk)` on each — on its own
/// scoped thread when there are several — returning what each call
/// returned, in chunk order.
fn par_chunks<R: Default + Send>(
    w: usize,
    records: &mut [Record],
    f: impl Fn(usize, &mut [Record]) -> R + Sync,
) -> Vec<R> {
    let per = records.len().div_ceil(w).max(1);
    let mut results = Vec::new();
    results.resize_with(records.len().div_ceil(per), R::default);
    if let [only] = results.as_mut_slice() {
        *only = f(0, records);
        return results;
    }
    std::thread::scope(|s| {
        for ((c, chunk), result) in records.chunks_mut(per).enumerate().zip(&mut results) {
            let f = &f;
            s.spawn(move || *result = f(c * per, chunk));
        }
    });
    results
}

/// `Vec::retain` over [`par_chunks`]: each chunk moves the records it keeps
/// to its front, then the kept prefixes close up in chunk order — the
/// order a sequential pass keeps them in — and the slack is given back.
fn par_retain(w: usize, records: &mut Vec<Record>, keep: impl Fn(&Record) -> bool + Sync) {
    let kept = par_chunks(w, records, |at, chunk| {
        // `chunk[..n]` is kept and `chunk[n..i]` rejected, so swapping
        // unconditionally only ever moves a rejected record (or none) out
        // of the way: no branch on a coin the predictor cannot call.
        let mut n = 0;
        for i in 0..chunk.len() {
            let kept = keep(&chunk[i]);
            chunk.swap(n, i);
            n += usize::from(kept);
        }
        (at, n)
    });
    let mut len = 0;
    for (at, n) in kept {
        records[len..at + n].rotate_left(at - len);
        len += n;
    }
    records.truncate(len);
    records.shrink_to_fit();
}

/// Sort under [`record_cmp`]: up to `w` chunks in place, then — if there
/// was more than one — one `sort_by` over the whole, which is the k-way
/// merge (std's stable sort detects presorted runs and merges them). The
/// comparator is total and equal elements are identical records, so an
/// unstable chunk sort, which needs no scratch buffer, yields the same
/// bytes as a stable one and as sorting sequentially.
fn par_sort(w: usize, mut input: Vec<Record>) -> Vec<Record> {
    let runs = par_chunks(w, &mut input, |_, chunk| {
        chunk.sort_unstable_by(record_cmp);
    });
    if runs.len() > 1 {
        input.sort_by(record_cmp);
    }
    input
}

/// Both sides of a key-matching operator, sorted — the larger one only
/// after dropping every record whose key the smaller side lacks: no match
/// involves those, and sorting is the expensive part.
fn sort_sides(w: usize, a: Vec<Record>, b: Vec<Record>) -> (Vec<Record>, Vec<Record>) {
    if a.len() > b.len() {
        let (b, a) = sort_sides(w, b, a);
        return (a, b);
    }
    let a = par_sort(w, a);
    let keys: Vec<u64> = a.iter().map(|r| r.key).collect();
    let mut b = b;
    par_retain(w, &mut b, |r| keys.binary_search(&r.key).is_ok());
    (a, par_sort(w, b))
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

/// `Aggregate`: one record holding the stream-order sum.
pub(crate) fn aggregate_sum(input: &[Record]) -> Vec<Record> {
    let mut acc = 0.0f64;
    for r in input {
        acc += r.num;
    }
    vec![Record {
        key: 0,
        num: acc,
        text: Text::new(),
    }]
}

/// `GlobalReduce`: the maximum numeric payload under `total_cmp`.
pub(crate) fn global_max(input: &[Record]) -> Vec<Record> {
    if input.is_empty() {
        return Vec::new();
    }
    let mut best = f64::NEG_INFINITY;
    for r in input {
        if r.num.total_cmp(&best) == std::cmp::Ordering::Greater {
            best = r.num;
        }
    }
    vec![Record {
        key: 0,
        num: best,
        text: Text::new(),
    }]
}

/// Sort-merge join on key with per-key fanout capped at
/// [`JOIN_GROUP_CAP`]²; output order is (a-group, b-group) nested in
/// sorted order.
pub(crate) fn join_sorted(a: Vec<Record>, b: Vec<Record>) -> Vec<Record> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(ra), Some(rb)) = (a.get(i), b.get(j)) {
        if ra.key < rb.key {
            i += 1;
        } else if ra.key > rb.key {
            j += 1;
        } else {
            let key = ra.key;
            let a_end = group_end(&a, i);
            let b_end = group_end(&b, j);
            for x in a.get(i..a_end.min(i + JOIN_GROUP_CAP)).unwrap_or(&[]) {
                for y in b.get(j..b_end.min(j + JOIN_GROUP_CAP)).unwrap_or(&[]) {
                    out.push(Record {
                        key,
                        num: x.num + y.num,
                        text: x.text.clone(),
                    });
                }
            }
            i = a_end;
            j = b_end;
        }
    }
    out
}

/// Keys present on both sides; emits the sorted-first record of `a`'s
/// group per common key.
pub(crate) fn intersect_sorted(a: Vec<Record>, b: Vec<Record>) -> Vec<Record> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(ra), Some(rb)) = (a.get(i), b.get(j)) {
        if ra.key < rb.key {
            i += 1;
        } else if ra.key > rb.key {
            j += 1;
        } else {
            out.push(ra.clone());
            i = group_end(&a, i);
            j = group_end(&b, j);
        }
    }
    out
}

/// First index past the key group starting at `i` in sorted `v`.
fn group_end(v: &[Record], i: usize) -> usize {
    let Some(key) = v.get(i).map(|r| r.key) else {
        return i;
    };
    let mut e = i;
    while v.get(e).map(|r| r.key) == Some(key) {
        e += 1;
    }
    e
}

/// Capped cross product in stream order.
pub(crate) fn cartesian(a: &[Record], b: &[Record]) -> Vec<Record> {
    let mut out = Vec::new();
    for x in a.iter().take(CARTESIAN_SIDE_CAP) {
        for y in b.iter().take(CARTESIAN_SIDE_CAP) {
            out.push(Record {
                key: mix64(x.key ^ mix64(y.key)),
                num: x.num + y.num,
                text: x.text.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::workloads;

    fn all_java(reg: &PlatformRegistry, n: usize) -> Vec<PlatformId> {
        vec![reg.by_name("java").unwrap(); n]
    }

    #[test]
    fn wordcount_really_counts_words() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(500.0);
        let engine = Engine::new(&reg).with_seed(7);
        let out = engine.execute_collect(&plan, &all_java(&reg, plan.n_ops()));
        assert!(out.report.feasible);
        let (_, sink) = out.terminals.first().expect("one sink");
        // Independently recount the generated words.
        let mut expected = std::collections::BTreeMap::new();
        for row in 0..500u64 {
            let line = source_record(OperatorKind::TextFileSource, 7, 0, row, 500);
            for w in line.text.words() {
                *expected.entry(Text::from(w)).or_insert(0u64) += 1;
            }
        }
        assert_eq!(sink.len(), expected.len(), "one record per distinct word");
        let total: f64 = sink.iter().map(|r| r.num).sum();
        let expected_total: u64 = expected.values().sum();
        assert_eq!(
            total as u64, expected_total,
            "counts must sum to the word total"
        );
        for r in sink {
            assert_eq!(
                Some(&(r.num as u64)),
                expected.get(&r.text),
                "count for {:?}",
                r.text
            );
        }
    }

    #[test]
    fn outputs_are_identical_across_worker_counts() {
        let reg = PlatformRegistry::named();
        for plan in [
            workloads::wordcount(2_000.0),
            workloads::pagerank(4_000.0, 5),
            workloads::kmeans(3_000.0, 4),
            workloads::synthetic_pipeline(12, 2_000.0),
        ] {
            // Spark's modeled parallelism lets multiple workers engage.
            let assign = vec![reg.by_name("spark").unwrap(); plan.n_ops()];
            let digests: Vec<u64> = [1usize, 2, 4]
                .iter()
                .map(|&w| {
                    Engine::new(&reg)
                        .with_workers(w)
                        .with_seed(11)
                        .execute_collect(&plan, &assign)
                        .report
                        .output_digest
                })
                .collect();
            assert_eq!(digests.first(), digests.get(1));
            assert_eq!(digests.first(), digests.get(2));
        }
    }

    #[test]
    fn par_ranges_hands_out_every_index_once_and_in_order() {
        for w in [1usize, 2, 3, 4, 7] {
            for n in [0, 1, w - 1, w, w + 1] {
                let seen = par_ranges(w, n, |range, out| out.extend(range));
                assert_eq!(seen, (0..n).collect::<Vec<_>>(), "w={w} n={n}");
            }
        }
    }

    #[test]
    fn par_chunks_tile_the_slice_in_order() {
        for w in [1usize, 2, 3, 4, 7] {
            for len in [0, 1, w - 1, w, w + 1, 50] {
                let mut records = vec![
                    Record {
                        key: 0,
                        num: 0.0,
                        text: Text::new(),
                    };
                    len
                ];
                let spans = par_chunks(w, &mut records, |at, chunk| {
                    for (i, r) in chunk.iter_mut().enumerate() {
                        r.key = (at + i) as u64;
                    }
                    (at, chunk.len())
                });
                assert!(spans.len() <= w, "w={w} len={len}");
                let mut next = 0;
                for (at, n) in spans {
                    assert_eq!(at, next, "w={w} len={len}");
                    next += n;
                }
                assert_eq!(next, len, "w={w} len={len}");
                let keys: Vec<u64> = records.iter().map(|r| r.key).collect();
                assert_eq!(keys, (0..len as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn par_retain_keeps_what_retain_keeps_in_order() {
        let mut rng = robopt_plan::rng::SplitMix64::new(0x2E7A);
        for w in [1usize, 2, 3, 4, 7] {
            for len in [0, 1, 2, w - 1, w, w + 1, 1000] {
                for cut in [0u64, 2, 4, 7] {
                    let input: Vec<Record> = (0..len)
                        .map(|i| Record {
                            key: rng.next_u64() % 7,
                            num: i as f64,
                            text: ["", "a", "a text too long to be stored inline…"][i % 3].into(),
                        })
                        .collect();
                    // Keys are 0..7: keep all, most, some, none.
                    let keep = |r: &Record| r.key >= cut;
                    let mut want = input.clone();
                    want.retain(keep);
                    let mut got = input;
                    par_retain(w, &mut got, keep);
                    assert_eq!(got, want, "w={w} len={len} cut={cut}");
                    assert_eq!(got.capacity(), got.len(), "w={w} len={len}");
                }
            }
        }
    }

    #[test]
    fn par_sort_equals_the_plain_sort_record_for_record() {
        let odd = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5];
        let mut rng = robopt_plan::rng::SplitMix64::new(0x50F7);
        for w in [1usize, 2, 3, 4, 7] {
            for len in [0, 1, 2, w - 1, w, w + 1, 1000] {
                // Five keys and six payloads: most records tie on the key,
                // many are equal outright.
                let input: Vec<Record> = (0..len)
                    .map(|_| Record {
                        key: rng.next_u64() % 5,
                        num: odd[rng.gen_range(odd.len())],
                        text: ["", "a", "b"][rng.gen_range(3)].into(),
                    })
                    .collect();
                let mut want = input.clone();
                want.sort_by(record_cmp);
                let got = par_sort(w, input);
                assert_eq!(got.len(), want.len(), "w={w} len={len}");
                // `record_cmp` compares bit patterns: equal means identical,
                // where `==` would call every NaN payload different.
                let same = |(g, x)| record_cmp(g, x).is_eq();
                assert!(got.iter().zip(&want).all(same), "w={w} len={len}");
            }
        }
    }

    #[test]
    fn infeasible_assignments_do_not_run() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(100.0);
        let engine = Engine::new(&reg);
        let pg = vec![reg.by_name("postgres").unwrap(); plan.n_ops()];
        let out = engine.execute_collect(&plan, &pg);
        assert!(!out.report.feasible);
        assert!(out.terminals.is_empty());
    }

    #[test]
    fn source_cap_bounds_generated_rows() {
        let reg = PlatformRegistry::named();
        let plan = workloads::wordcount(1e12);
        let engine = Engine::new(&reg).with_max_source_rows(1_000);
        let out = engine.execute_collect(&plan, &all_java(&reg, plan.n_ops()));
        assert!(out.report.feasible);
        let flat_map_rows = out.report.per_op.get(1).map(|r| r.output_rows).unwrap_or(0);
        assert!(flat_map_rows < 10_000, "cap must bound the pipeline");
    }

    #[test]
    fn repeat_loop_iterations_raise_the_modeled_overhead_deterministically() {
        let reg = PlatformRegistry::named();
        let assign_n = workloads::pagerank(20_000.0, 1).n_ops();
        let engine = Engine::new(&reg).with_seed(3);
        let assign = all_java(&reg, assign_n);
        let short = engine.execute_collect(&workloads::pagerank(20_000.0, 1), &assign);
        let long = engine.execute_collect(&workloads::pagerank(20_000.0, 64), &assign);
        let again = engine.execute_collect(&workloads::pagerank(20_000.0, 64), &assign);
        // The loop-sync charge is modeled, not measured: strictly larger at
        // 64 iterations than at 1, and the same bits on every run.
        assert!(long.report.overhead_seconds > short.report.overhead_seconds);
        assert_eq!(
            long.report.overhead_seconds.to_bits(),
            again.report.overhead_seconds.to_bits()
        );
        // Rank mass is conserved modulo dangling-node leakage.
        let (_, ranks) = long.terminals.first().expect("sink stream");
        let total: f64 = ranks.iter().map(|r| r.num).sum();
        assert!(total > 0.1 && total <= 1.0 + 1e-9, "rank mass {total}");
    }
}
