//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer (spans inside the product are ROADMAP item 1, a later
//! change). A span is name, start, end, the span that caused it, and the
//! request it belongs to; everything stays in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock origin, shared with [`crate::oracle::CountingOracle`] so
    /// its call log lands on the same time axis.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Record an already-finished span (the oracle's call log) under
    /// `parent`.
    pub fn add_closed(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u32,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (overlapping children count once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// JSON array of the spans of requests `< max_request` (the first pass;
    /// the totals use every span, the file stays readable).
    pub fn to_json(&self, max_request: u32) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.request >= max_request {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // request [0,100]
        //   build      [0,10]
        //   enumerate  [10,90]
        //     oracle   [20,30], [25,45] (overlap counts once), [50,60]
        //   render     [90,100]
        let rec = Recorder {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: vec![
                closed("request", 0, 100, None),
                closed("build", 0, 10, Some(0)),
                closed("enumerate", 10, 90, Some(0)),
                closed("oracle", 20, 30, Some(2)),
                closed("oracle", 25, 45, Some(2)),
                closed("oracle", 50, 60, Some(2)),
                closed("render", 90, 100, Some(0)),
            ],
        };
        assert_eq!(rec.self_times_ns(), vec![0, 10, 45, 10, 20, 10, 10]);
        let totals = rec.totals_by_name();
        assert_eq!(
            totals["enumerate"],
            NameTotal {
                count: 1,
                total_ns: 80,
                self_ns: 45
            }
        );
        assert_eq!(totals["oracle"].count, 3);
        assert_eq!(totals["oracle"].total_ns, 40);
        // Self times of a tree sum to the root's duration when children do
        // not overlap each other; here the overlap [25,30] is counted in
        // both oracle spans' self time, so the sum exceeds it by 5.
        let sum: u64 = rec.self_times_ns().iter().sum();
        assert_eq!(sum, 105);
    }

    #[test]
    fn enter_exit_nest_and_stamp_parents() {
        let mut rec = Recorder::new();
        let a = rec.enter("a", 7);
        let b = rec.enter("b", 7);
        rec.exit(b);
        rec.add_closed("c", 1, 2, a, 7);
        rec.exit(a);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(rec.to_json(8).contains("\"name\":\"b\""));
        assert_eq!(rec.to_json(7), "[\n]");
    }
}
