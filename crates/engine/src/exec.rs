//! The multi-threaded in-memory dataflow executor — the "Java platform"
//! made real.
//!
//! [`Engine`] really moves [`Record`]s: WordCount counts actual generated
//! words, GroupBy groups them, and `RepeatLoop` runs PageRank or k-means
//! kernels with per-iteration loop overheads. Parallelism is
//! order-preserving by construction, so **outputs are byte-identical
//! across worker counts**:
//!
//! * operators that rewrite the stream they own process contiguous chunks
//!   of it in place on the workspace's one fan-out,
//!   [`robopt_plan::par::par_chunks`]; operators that build a new stream
//!   process contiguous index ranges over it (`par_ranges`) and concatenate
//!   results in range order — both identical to the sequential pass;
//! * Sort and the two sides of Join / Intersect sort under the total order
//!   [`record_cmp`]; sorting chunks in parallel and then merging them
//!   reproduces the plain sort byte-for-byte — stable or not — because
//!   equal elements are fully identical;
//! * Distinct, ReduceByKey and GroupByKey fold their stream into a hash
//!   table (an accumulator) per contiguous range, merge the tables in
//!   range order and emit them sorted: what the table keeps per entry (the
//!   least record of its class and how many fell into it) does not depend
//!   on arrival order, and the one float sum is taken only then, in sorted
//!   order — threads never race on a sum;
//! * sources seed each record by row index, never by partition.
//!
//! Narrow chains are fused into the keyed operator they feed, the way Java
//! streams run stateless stages lazily into the next stateful one: a
//! source or a Map / MapPartitions / Filter / Sample / FlatMap whose one
//! consumer is another such operator or a one-input keyed operator never
//! materializes its output. The keyed operator streams the chain's head —
//! the source's rows, or the buffer the chain's first operator would have
//! read — record by record through the per-record rules of
//! [`crate::data`] into its accumulators, counting each fused operator's
//! output as it passes. What streams is a view of a record — its key, its
//! payload and its text as bytes held elsewhere — not a [`Record`]: a Map
//! rewrites the key, a coin reads it, a FlatMap hands each word on as a
//! slice of its line, and a text source's line is generated only when a
//! FlatMap or the accumulator reads it. A [`Record`] is built only where
//! an accumulator keeps one. A source read only by a Filter or Sample that
//! materializes is fused the same way: the Filter generates the rows and
//! stores only those its coin keeps, so the source's stream is never
//! built.
//!
//! Timings are the one non-deterministic output: `compute_seconds` is
//! measured wall clock, while startup/fixed/conversion/loop-sync overheads
//! are deterministically modeled on the simulator's calibration
//! ([`robopt_platforms::Platform::fixed_seconds`],
//! [`PlatformRegistry::conversion_seconds`]) scaled by [`OVERHEAD_SCALE`]
//! (one process stands in for a cluster). A fused chain's wall time is
//! measured once, on the operator it is fused into; the fused operators
//! report their modeled overhead only, and `compute_seconds` is still the
//! sum of everything measured.
//! Timings land only in the [`ExecutionReport`] — they are **never**
//! digested.
//!
//! Records are moved, not copied: an operator takes its producer's buffer
//! when it is the last one to read it and borrows or clones it otherwise
//! (`Buffers::input`), so a buffer lives from the operator that filled
//! it to the last operator that reads it and no longer.

use std::borrow::Cow;

use robopt_plan::index::{HashIndex, KeyMap};
use robopt_plan::par::{now, par_chunks};
use robopt_plan::{rng::mix64, LogicalPlan, Operator, OperatorKind};
use robopt_platforms::{
    ExecutionBackend, ExecutionReport, OperatorReport, PlatformId, PlatformRegistry,
};

use crate::data::{
    assign_point, digest_terminals, flat_map_len, flat_map_record, keep_key, keep_record,
    line_fields, point_of, record_cmp, rekey, rekey_record, source_line, source_record,
    split_number, view_cmp, word_fields, words_of, Record, Text, FILTER_SALT, LINE_CAP,
    PAGERANK_DST_SALT, SAMPLE_SALT,
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
        // its row count is taken now: its buffer may be gone by the end. A
        // fused operator runs inside its consumer's window, which also
        // fills in its row count.
        let mut buffers = Buffers {
            records: vec![Vec::new(); n],
            consumers: (0..n as u32).map(|op| plan.succs(op).len()).collect(),
            fused: fused_ops(plan),
        };
        let mut measured = vec![0.0f64; n];
        let mut rows = vec![0u64; n];
        for op in plan.topo_order() {
            let i = op as usize;
            if buffers.fused[i] {
                continue;
            }
            let p = assignments[i];
            let w = self.op_workers(p);
            let started = now();
            let out = self.run_op(plan, op, &mut buffers, &mut rows, w);
            measured[i] = started.elapsed().as_secs_f64();
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
            let fixed = self.registry.platform(p).fixed_seconds(plan.op(op)) * OVERHEAD_SCALE;
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
                    .conversion_seconds(pu, pv, rows[u as usize] as f64);
                if c.is_finite() {
                    overhead += c * OVERHEAD_SCALE;
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

    fn run_op(
        &self,
        plan: &LogicalPlan,
        op: u32,
        buffers: &mut Buffers,
        rows: &mut [u64],
        w: usize,
    ) -> Vec<Record> {
        let o = plan.op(op);
        let preds = plan.preds(op);
        // Binary inputs: first predecessor vs everything after it.
        let (first, rest) = preds.split_at(preds.len().min(1));
        match o.kind {
            OperatorKind::TextFileSource
            | OperatorKind::CollectionSource
            | OperatorKind::TableSource => {
                let source = self.source(plan, op, rows);
                par_ranges(w, source.len(), |range, out| {
                    out.reserve(range.len());
                    out.extend(range.map(|row| source.record(row)));
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
                if let [src] = *preds {
                    if buffers.fused[src as usize] {
                        // The source streams through the coin a block at
                        // a time: only what it keeps is ever stored. The
                        // whole range is reserved, but only the kept rows'
                        // pages (and one block past them) are touched, and
                        // `par_ranges` gives the rest back; growing by
                        // doubling instead cost more in copies than the
                        // fusion saved.
                        let source = self.source(plan, src, rows);
                        let keep = move |r: &Record| keep_record(r, sel, salt);
                        return par_ranges(w, source.len(), move |mut left, out| {
                            out.reserve(left.len());
                            while !left.is_empty() {
                                let block = left.start..left.end.min(left.start + KEEP_BLOCK);
                                left.start = block.end;
                                let at = out.len();
                                out.extend(block.map(|row| source.record(row)));
                                let kept = keep_to_front(&mut out[at..], keep);
                                out.truncate(at + kept);
                            }
                        });
                    }
                }
                let mut records = buffers.input(preds).into_owned();
                par_retain(w, &mut records, |r| keep_record(r, sel, salt));
                records
            }
            OperatorKind::Sort => par_sort(w, buffers.input(preds).into_owned()),
            OperatorKind::Distinct => self.run_keyed(plan, op, Keyed::Distinct, buffers, rows, w),
            OperatorKind::ReduceByKey => {
                self.run_keyed(plan, op, Keyed::ReduceByKey, buffers, rows, w)
            }
            OperatorKind::GroupByKey => {
                self.run_keyed(plan, op, Keyed::GroupByKey, buffers, rows, w)
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

    /// A keyed operator and the fused chain feeding it, as one loop: the
    /// chain's head is cut into `w` contiguous ranges, each streams through
    /// the chain's stages into its own accumulator, and the accumulators
    /// merge in range order before `finish`. Fills in the fused operators'
    /// row counts.
    fn run_keyed(
        &self,
        plan: &LogicalPlan,
        op: u32,
        keyed: Keyed,
        buffers: &mut Buffers,
        rows: &mut [u64],
        w: usize,
    ) -> Vec<Record> {
        // Walk the chain back from the consumer: narrow operators become
        // stages, a source ends the walk as the head.
        let mut chain: Vec<(u32, Stage)> = Vec::new();
        let mut source = None;
        let mut first = op;
        while let [p] = *plan.preds(first) {
            if !buffers.fused[p as usize] {
                break;
            }
            first = p;
            match Stage::of(plan.op(p)) {
                Some(stage) => chain.push((p, stage)),
                None => {
                    source = Some(p);
                    break;
                }
            }
        }
        chain.reverse();
        let stages: Vec<Stage> = chain.iter().map(|&(_, stage)| stage).collect();
        let head = match source {
            Some(src) => Head::Source(self.source(plan, src, rows)),
            None => Head::Buffer(buffers.input(plan.preds(first))),
        };

        let passes = par_ranges(w, head.len(), |range, out| {
            let mut pass = Pass::new(keyed, &stages);
            head.feed(range, &mut pass);
            out.push(pass);
        });
        let merged = passes.into_iter().reduce(|mut total, pass| {
            total.merge(pass);
            total
        });
        let Some(total) = merged else {
            return Vec::new();
        };
        for (&(fused, _), &passed) in chain.iter().zip(&total.passed) {
            rows[fused as usize] = passed;
        }
        total.acc.finish()
    }

    /// Source `op`'s stream, with its row count written to `rows`.
    fn source(&self, plan: &LogicalPlan, op: u32, rows: &mut [u64]) -> Source {
        let o = plan.op(op);
        let n = clamp_rows(o.source_cardinality, self.max_source_rows);
        rows[op as usize] = n;
        Source {
            kind: o.kind,
            seed: self.seed,
            op,
            rows: n,
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

/// What a source operator generates: `rows` rows (its cardinality clamped
/// to the engine's cap), row `row` being [`source_record`]'s. The source
/// arm, a Filter / Sample generating its source's rows, and a keyed
/// operator's chain head all read a source through this one value.
#[derive(Debug, Clone, Copy)]
struct Source {
    kind: OperatorKind,
    seed: u64,
    op: u32,
    rows: u64,
}

impl Source {
    fn len(&self) -> usize {
        self.rows as usize
    }

    fn record(&self, row: usize) -> Record {
        source_record(self.kind, self.seed, self.op, row as u64, self.rows)
    }
}

/// Whether `op` is fused into the operator downstream of it: it is a
/// source or a narrow operator, and its one consumer — not a terminal, no
/// second consumer, no double edge — reads nothing else and is either a
/// fused narrow operator itself or Distinct / ReduceByKey / GroupByKey; or
/// `op` is a source and that consumer a Filter / Sample, which then
/// generates the rows itself and stores only those its coin keeps. Fusing
/// longer chains into other consumers measured slower (DESIGN §11).
fn fused_ops(plan: &LogicalPlan) -> Vec<bool> {
    let mut fused = vec![false; plan.n_ops()];
    for op in plan.topo_order().into_iter().rev() {
        let o = plan.op(op);
        let streams = o.kind.is_source() || Stage::of(o).is_some();
        fused[op as usize] = streams
            && match *plan.succs(op) {
                [next] => {
                    let n = plan.op(next);
                    let coin = matches!(n.kind, OperatorKind::Filter | OperatorKind::Sample);
                    plan.preds(next).len() == 1
                        && ((fused[next as usize] && Stage::of(n).is_some())
                            || Keyed::of(n.kind).is_some()
                            || (o.kind.is_source() && coin))
                }
                _ => false,
            };
    }
    fused
}

/// What the operators run so far have produced and not yet handed on: one
/// buffer per operator, and how many consumers have still to read it
/// (`plan.succs(op).len()` to start with, so a double edge counts twice).
/// A fused operator never fills its buffer: its consumer streams it.
struct Buffers {
    records: Vec<Vec<Record>>,
    consumers: Vec<usize>,
    fused: Vec<bool>,
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
/// ranges, run `f` on each — over [`par_chunks`], one output part per
/// range — and concatenate what the ranges pushed in range order, so the
/// result is what `f(0..n)` alone would have produced whatever the
/// scheduling.
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
    // `w` parts in `w` chunks: one part per chunk, so a chunk's offset is
    // its range's index.
    let mut parts: Vec<Vec<T>> = (0..w).map(|_| Vec::new()).collect();
    par_chunks(w, &mut parts, |c, chunk| {
        for part in chunk {
            f(c * n / w..(c + 1) * n / w, part);
        }
    });
    out.reserve(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// `Vec::retain` over [`par_chunks`]: each chunk moves the records it keeps
/// to its front, then the kept prefixes close up in chunk order — the
/// order a sequential pass keeps them in — and the slack is given back.
fn par_retain(w: usize, records: &mut Vec<Record>, keep: impl Fn(&Record) -> bool + Sync) {
    let kept = par_chunks(w, records, |at, chunk| (at, keep_to_front(chunk, &keep)));
    let mut len = 0;
    for (at, n) in kept {
        records[len..at + n].rotate_left(at - len);
        len += n;
    }
    records.truncate(len);
    records.shrink_to_fit();
}

/// Records a source fused into its Filter / Sample generates before the
/// coin closes them up: 48 KiB, so a block is still in cache when it is
/// closed up, and what the coin rejects never reaches further than this
/// past what it kept.
const KEEP_BLOCK: usize = 1024;

/// Move the records of `chunk` that `keep` accepts to its front, in order,
/// and return how many there are.
fn keep_to_front(chunk: &mut [Record], keep: impl Fn(&Record) -> bool) -> usize {
    // `chunk[..n]` is kept and `chunk[n..i]` rejected, so swapping
    // unconditionally only ever moves a rejected record (or none) out of
    // the way: no branch on a coin the predictor cannot call.
    let mut n = 0;
    for i in 0..chunk.len() {
        let kept = keep(&chunk[i]);
        chunk.swap(n, i);
        n += usize::from(kept);
    }
    n
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
/// after dropping every record whose key the smaller side lacks (probed in
/// a hash set of the smaller side's keys): no match involves those, and
/// sorting is the expensive part.
fn sort_sides(w: usize, a: Vec<Record>, b: Vec<Record>) -> (Vec<Record>, Vec<Record>) {
    if a.len() > b.len() {
        let (b, a) = sort_sides(w, b, a);
        return (a, b);
    }
    let mut keys = KeyMap::with_capacity(a.len());
    for r in &a {
        keys.insert_or_get(r.key, ());
    }
    let mut b = b;
    par_retain(w, &mut b, |r| keys.get(r.key).is_some());
    (par_sort(w, a), par_sort(w, b))
}

/// A narrow operator fused into the stream feeding a keyed operator.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Map / MapPartitions: [`rekey`].
    Map,
    /// Filter / Sample: [`keep_key`] with the operator's coin.
    Keep { selectivity: f64, salt: u64 },
    /// FlatMap: [`flat_map_record`], as [`words_of`] and [`split_number`].
    FlatMap,
}

impl Stage {
    /// The stage `o` runs as, if it is a narrow operator.
    fn of(o: &Operator) -> Option<Stage> {
        match o.kind {
            OperatorKind::Map | OperatorKind::MapPartitions => Some(Stage::Map),
            OperatorKind::Filter => Some(Stage::Keep {
                selectivity: o.selectivity,
                salt: FILTER_SALT,
            }),
            OperatorKind::Sample => Some(Stage::Keep {
                selectivity: o.selectivity,
                salt: SAMPLE_SALT,
            }),
            OperatorKind::FlatMap => Some(Stage::FlatMap),
            _ => None,
        }
    }
}

/// Where a keyed operator's stream starts.
enum Head<'b> {
    /// A fused source, generated row by row.
    Source(Source),
    /// The buffer the chain's first operator — or, with no chain, the
    /// keyed operator itself — reads through `Buffers::input`.
    Buffer(Cow<'b, [Record]>),
}

impl Head<'_> {
    fn len(&self) -> usize {
        match self {
            Head::Source(source) => source.len(),
            Head::Buffer(records) => records.len(),
        }
    }

    /// Push the head's records `range` into `pass`, as views: a buffer's
    /// records by reference, a text source's rows with their lines not yet
    /// generated.
    fn feed(&self, range: std::ops::Range<usize>, pass: &mut Pass<'_>) {
        match *self {
            Head::Source(Source {
                kind: OperatorKind::TextFileSource,
                seed,
                op,
                ..
            }) => {
                for row in range {
                    let row = row as u64;
                    let (key, num) = line_fields(row);
                    pass.push(0, key, num, Body::Line { seed, op, row });
                }
            }
            Head::Source(source) => {
                for row in range {
                    let r = source.record(row);
                    pass.push(0, r.key, r.num, Body::Bytes(r.text.as_bytes()));
                }
            }
            Head::Buffer(ref records) => {
                for r in &records[range] {
                    pass.push(0, r.key, r.num, Body::Bytes(r.text.as_bytes()));
                }
            }
        }
    }
}

/// The text of a record in flight through a fused chain.
#[derive(Clone, Copy)]
enum Body<'t> {
    /// Bytes held elsewhere: a buffered record's text, or a word of a line.
    Bytes(&'t [u8]),
    /// Row `row` of text source `op`, whose line ([`source_line`]) no stage
    /// has read yet.
    Line { seed: u64, op: u32, row: u64 },
}

impl<'t> Body<'t> {
    /// The bytes, generating a line into `line` if it was not yet.
    #[inline]
    fn bytes<'l>(self, line: &'l mut [u8; LINE_CAP]) -> &'l [u8]
    where
        't: 'l,
    {
        match self {
            Body::Bytes(bytes) => bytes,
            Body::Line { seed, op, row } => {
                let len = source_line(seed, op, row, line);
                &line[..len]
            }
        }
    }
}

/// One contiguous range of a keyed operator's stream: its records pass
/// through the fused stages into an accumulator as `(key, num, text)`
/// views, and every stage counts what it passes on.
struct Pass<'s> {
    stages: &'s [Stage],
    /// Records each stage passed on, stage for stage.
    passed: Vec<u64>,
    acc: Accumulator,
}

impl<'s> Pass<'s> {
    fn new(keyed: Keyed, stages: &'s [Stage]) -> Self {
        Pass {
            stages,
            passed: vec![0; stages.len()],
            acc: Accumulator::new(keyed),
        }
    }

    /// Feed the record `(key, num, text)` to stage `at` and on (the
    /// accumulator past the last one). A Map rewrites the key and a coin
    /// reads it; a FlatMap — and the accumulator — read the text, so a
    /// line is generated there or nowhere, and a FlatMap hands each word
    /// on as a slice of its line.
    fn push(&mut self, mut at: usize, mut key: u64, num: f64, text: Body<'_>) {
        while let Some(&stage) = self.stages.get(at) {
            match stage {
                Stage::Map => key = rekey(key),
                Stage::Keep { selectivity, salt } => {
                    if !keep_key(key, selectivity, salt) {
                        return;
                    }
                }
                Stage::FlatMap => {
                    let mut line = [0; LINE_CAP];
                    let bytes = text.bytes(&mut line);
                    if bytes.is_empty() {
                        self.passed[at] += 2;
                        for (key, num) in split_number(key, num) {
                            self.push(at + 1, key, num, Body::Bytes(&[]));
                        }
                    } else {
                        for word in words_of(bytes) {
                            self.passed[at] += 1;
                            let (key, num) = word_fields(word);
                            self.push(at + 1, key, num, Body::Bytes(word));
                        }
                    }
                    return;
                }
            }
            self.passed[at] += 1;
            at += 1;
        }
        let mut line = [0; LINE_CAP];
        self.acc.add(key, num, text.bytes(&mut line));
    }

    /// Fold the next range's pass into this one.
    fn merge(&mut self, next: Pass<'_>) {
        for (mine, theirs) in self.passed.iter_mut().zip(next.passed) {
            *mine += theirs;
        }
        self.acc.merge(next.acc);
    }
}

/// The three keyed operators, told apart by what makes two records the
/// same entry of their [`Accumulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keyed {
    /// One entry per distinct record.
    Distinct,
    /// One entry per (key, num bits).
    ReduceByKey,
    /// One entry per key.
    GroupByKey,
}

impl Keyed {
    fn of(kind: OperatorKind) -> Option<Keyed> {
        match kind {
            OperatorKind::Distinct => Some(Keyed::Distinct),
            OperatorKind::ReduceByKey => Some(Keyed::ReduceByKey),
            OperatorKind::GroupByKey => Some(Keyed::GroupByKey),
            _ => None,
        }
    }

    /// A hash of the part of `(key, num, text)` that decides its entry.
    /// Text bytes are folded in one at a time and mixed once: the words
    /// keyed operators see are a few bytes long.
    fn hash(self, key: u64, num: f64, text: &[u8]) -> u64 {
        let mut h = mix64(key);
        if self != Keyed::GroupByKey {
            h ^= num.to_bits();
            if self == Keyed::Distinct {
                for &b in text {
                    h = h.rotate_left(8) ^ u64::from(b);
                }
            }
            h = mix64(h);
        }
        h
    }

    /// Whether `(key, num, text)` falls into `least`'s entry.
    fn same(self, least: &Record, key: u64, num: f64, text: &[u8]) -> bool {
        least.key == key
            && (self == Keyed::GroupByKey
                || (least.num.to_bits() == num.to_bits()
                    && (self == Keyed::ReduceByKey || same_bytes(least.text.as_bytes(), text))))
    }
}

/// Byte equality as a loop the compiler keeps inline: a keyed operator
/// compares a few bytes per record, too few to pay for the `bcmp` call
/// `==` makes.
fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// One entry of an [`Accumulator`]: the least record of its class under
/// [`record_cmp`], and how many records fell into the class.
struct Entry {
    hash: u64,
    count: u64,
    least: Record,
}

/// A keyed operator's state: one [`Entry`] per class of records the
/// operator does not tell apart, found through the workspace's
/// [`HashIndex`]. What an entry holds does not depend on the order records
/// arrive in, so accumulators over contiguous ranges merge into the
/// accumulator of the whole stream, and [`Accumulator::finish`] emits
/// exactly what sorting the stream under [`record_cmp`] and folding it did.
struct Accumulator {
    keyed: Keyed,
    entries: Vec<Entry>,
    index: HashIndex,
}

impl Accumulator {
    fn new(keyed: Keyed) -> Self {
        Accumulator {
            keyed,
            entries: Vec::new(),
            index: HashIndex::default(),
        }
    }

    fn add(&mut self, key: u64, num: f64, text: &[u8]) {
        self.absorb(self.keyed.hash(key, num, text), 1, key, num, text);
    }

    /// Union `other`'s entries into this one's: counts add, the least
    /// record is kept.
    fn merge(&mut self, other: Accumulator) {
        for e in other.entries {
            let r = &e.least;
            self.absorb(e.hash, e.count, r.key, r.num, r.text.as_bytes());
        }
    }

    /// Count `count` records `(key, num, text)` into their entry. A
    /// [`Record`] is built only for a new entry or a new least record, the
    /// least under [`view_cmp`], [`record_cmp`]'s order over views.
    fn absorb(&mut self, hash: u64, count: u64, key: u64, num: f64, text: &[u8]) {
        let (keyed, entries) = (self.keyed, &mut self.entries);
        let found = self
            .index
            .probe(hash, |i| keyed.same(&entries[i].least, key, num, text));
        let record = || Record {
            key,
            num,
            text: text.into(),
        };
        match found {
            Ok(i) => {
                let e = &mut entries[i];
                e.count += count;
                // Under Distinct, and mostly otherwise, the view is the
                // least record already.
                let least = &e.least;
                let identical = keyed == Keyed::Distinct
                    || (num.to_bits() == least.num.to_bits()
                        && same_bytes(text, least.text.as_bytes()));
                if !identical && view_cmp((key, num, text), least.view()).is_lt() {
                    e.least = record();
                }
            }
            Err(slot) => {
                entries.push(Entry {
                    hash,
                    count,
                    least: record(),
                });
                self.index
                    .fill(slot, hash, entries.len(), |i| entries[i].hash);
            }
        }
    }

    /// The operator's output, in [`record_cmp`] order: the distinct
    /// records; per key its count and least (num bits, text)'s text; or per
    /// key the sum of every record's payload, added one by one in ascending
    /// bit order — the additions sort-then-fold made, in its order.
    fn finish(self) -> Vec<Record> {
        let mut entries = self.entries;
        entries.sort_unstable_by(|a, b| record_cmp(&a.least, &b.least));
        match self.keyed {
            Keyed::Distinct => entries.into_iter().map(|e| e.least).collect(),
            Keyed::GroupByKey => entries
                .into_iter()
                .map(|e| Record {
                    num: e.count as f64,
                    ..e.least
                })
                .collect(),
            Keyed::ReduceByKey => {
                let mut out: Vec<Record> = Vec::new();
                for Entry { count, least, .. } in entries {
                    let num = least.num;
                    let mut adds = count;
                    if out.last().map(|group| group.key) != Some(least.key) {
                        out.push(least);
                        adds -= 1;
                    }
                    if let Some(group) = out.last_mut() {
                        for _ in 0..adds {
                            group.num += num;
                        }
                    }
                }
                out
            }
        }
    }
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

    /// What the keyed operators computed before they hashed: sort the
    /// whole stream, then dedup or fold it.
    fn sort_then_fold(keyed: Keyed, stream: &[Record]) -> Vec<Record> {
        use crate::reference::{fold_groups, GroupMode};
        let mut sorted = stream.to_vec();
        sorted.sort_by(record_cmp);
        match keyed {
            Keyed::Distinct => {
                sorted.dedup_by(|a, b| record_cmp(a, b).is_eq());
                sorted
            }
            Keyed::ReduceByKey => fold_groups(sorted, GroupMode::Sum),
            Keyed::GroupByKey => fold_groups(sorted, GroupMode::Count),
        }
    }

    /// Record for record under [`record_cmp`], i.e. under `to_bits`: `==`
    /// would call every NaN payload different.
    fn same_records(a: &[Record], b: &[Record]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| record_cmp(x, y).is_eq())
    }

    /// Cut `head` into `ranges` contiguous ranges, run one [`Pass`] over
    /// each and merge them in range order, as `run_keyed` does.
    fn passes<'s>(keyed: Keyed, stages: &'s [Stage], head: &Head<'_>, ranges: usize) -> Pass<'s> {
        let len = head.len();
        let mut total = Pass::new(keyed, stages);
        for c in 0..ranges {
            let mut pass = Pass::new(keyed, stages);
            head.feed(c * len / ranges..(c + 1) * len / ranges, &mut pass);
            total.merge(pass);
        }
        total
    }

    fn buffer(records: &[Record]) -> Head<'_> {
        Head::Buffer(Cow::Borrowed(records))
    }

    #[test]
    fn the_view_rules_are_the_record_rules() {
        for kind in [
            OperatorKind::TextFileSource,
            OperatorKind::TableSource,
            OperatorKind::CollectionSource,
        ] {
            for row in 0..10_000u64 {
                let r = source_record(kind, 0x5EED, 3, row, 10_000);
                if kind == OperatorKind::TextFileSource {
                    let mut line = [0; LINE_CAP];
                    let len = source_line(0x5EED, 3, row, &mut line);
                    assert_eq!(&line[..len], r.text.as_bytes(), "row {row}");
                    assert_eq!(line_fields(row), (r.key, r.num), "row {row}");
                }
                for selectivity in [0.0, 0.37, 1.0] {
                    for salt in [FILTER_SALT, SAMPLE_SALT] {
                        assert_eq!(
                            keep_key(r.key, selectivity, salt),
                            keep_record(&r, selectivity, salt),
                            "{kind:?} row {row} at {selectivity}"
                        );
                    }
                }
            }
        }
    }

    const KEYED: [Keyed; 3] = [Keyed::Distinct, Keyed::ReduceByKey, Keyed::GroupByKey];

    #[test]
    fn merged_accumulators_finish_as_sort_then_fold_did() {
        // Sums that depend on their order (1e16 + 1.0 − 1e16), both zeros,
        // NaNs with different payloads, and texts that tie on key and num.
        let nums = [
            1e16,
            1.0,
            -1e16,
            0.0,
            -0.0,
            0.1,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0000),
        ];
        let texts = ["", "a", "b", "w00", "a text too long to be stored inline…"];
        let mut rng = robopt_plan::rng::SplitMix64::new(0xACC0);
        for stream in 0..512 {
            // Few keys (deep groups) to many (nearly every record its own).
            let keys = [1u64, 3, 17, 1 << 40][stream % 4];
            let len = rng.gen_range(if stream % 8 == 0 { 3_000 } else { 300 });
            let input: Vec<Record> = (0..len)
                .map(|_| Record {
                    key: rng.next_u64() % keys,
                    num: nums[rng.gen_range(nums.len())],
                    text: texts[rng.gen_range(texts.len())].into(),
                })
                .collect();
            for keyed in KEYED {
                let want = sort_then_fold(keyed, &input);
                for ranges in 1..=4 {
                    let got = passes(keyed, &[], &buffer(&input), ranges).acc.finish();
                    assert!(
                        same_records(&got, &want),
                        "stream {stream} {keyed:?} over {ranges} ranges"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_stages_pass_on_what_the_materialized_operators_would() {
        use crate::data::map_record;
        // Lines of no words at all, which no generated source emits but a
        // stage must still count (FlatMap makes nothing of them).
        let texts = [
            "",
            "   ",
            " \t\n",
            "w00",
            "w00 w1f  w00",
            "w01 w02 w03 w04 w05 w06 w07 w08",
        ];
        let pool = [
            Stage::Map,
            Stage::Keep {
                selectivity: 0.5,
                salt: FILTER_SALT,
            },
            Stage::Keep {
                selectivity: 0.3,
                salt: SAMPLE_SALT,
            },
            Stage::FlatMap,
        ];
        let mut rng = robopt_plan::rng::SplitMix64::new(0x57A6);
        for case in 0..300 {
            let stages: Vec<Stage> = (0..rng.gen_range(6))
                .map(|_| pool[rng.gen_range(pool.len())])
                .collect();
            let input: Vec<Record> = (0..rng.gen_range(400))
                .map(|_| Record {
                    key: rng.next_u64() % 50,
                    num: (rng.gen_range(7) as f64) - 3.0,
                    text: texts[rng.gen_range(texts.len())].into(),
                })
                .collect();
            // The same chain from a generated text source, whose lines the
            // fused pass generates only where a stage reads them.
            let (kind, seed, op) = (OperatorKind::TextFileSource, rng.next_u64(), case);
            let rows = rng.gen_range(400) as u64;
            let source = Source {
                kind,
                seed,
                op,
                rows,
            };
            let lines: Vec<Record> = (0..source.len()).map(|row| source.record(row)).collect();
            let source = Head::Source(source);
            for (head, start) in [(buffer(&input), &input), (source, &lines)] {
                // Materialize every stage, one whole stream after another.
                let mut stream = start.clone();
                let mut counts = Vec::new();
                for stage in &stages {
                    stream = match *stage {
                        Stage::Map => stream.iter().map(map_record).collect(),
                        Stage::Keep { selectivity, salt } => stream
                            .into_iter()
                            .filter(|r| keep_record(r, selectivity, salt))
                            .collect(),
                        Stage::FlatMap => {
                            let mut out = Vec::new();
                            stream.iter().for_each(|r| flat_map_record(r, &mut out));
                            out
                        }
                    };
                    counts.push(stream.len() as u64);
                }
                for keyed in KEYED {
                    let want = sort_then_fold(keyed, &stream);
                    for ranges in 1..=4 {
                        let total = passes(keyed, &stages, &head, ranges);
                        assert_eq!(total.passed, counts, "case {case} {stages:?}");
                        let got = total.acc.finish();
                        assert!(
                            same_records(&got, &want),
                            "case {case} {stages:?} {keyed:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn records_under_one_hash_keep_their_own_entries() {
        // One fixed hash for every record: only `Keyed::same` tells the
        // classes apart, never the index's tag.
        let record = |key, num, text: &str| Record {
            key,
            num,
            text: text.into(),
        };
        let stream = [
            record(9, 1.0, "b"),
            record(2, 5.0, "a"),
            record(9, 1.0, "b"),
        ];
        for keyed in KEYED {
            let mut acc = Accumulator::new(keyed);
            for r in &stream {
                acc.absorb(0xC0_1115_10E5, 1, r.key, r.num, r.text.as_bytes());
            }
            let got = acc.finish();
            assert_eq!(got.len(), 2, "{keyed:?}");
            let want = sort_then_fold(keyed, &stream);
            assert!(same_records(&got, &want), "{keyed:?}: {got:?}");
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
