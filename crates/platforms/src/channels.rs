//! The channel / conversion-operator graph (COT) with precomputed
//! all-pairs cheapest conversion paths.
//!
//! Moving an intermediate dataset from one platform to another traverses a
//! *conversion path*: one direct channel (e.g. Spark RDD → Postgres COPY)
//! or a multi-hop chain through intermediate formats when no direct channel
//! exists. Each direct channel carries a fixed setup cost plus a per-tuple
//! cost; a path sums both legs. All-pairs cheapest paths are precomputed at
//! registry build time (Floyd–Warshall, ranking paths by their total cost
//! at a reference cardinality of [`REF_TUPLES`] tuples), so the enumeration
//! hot path reads conversion costs with two multiplies and an add.

use crate::registry::PlatformId;

/// Reference cardinality at which alternative conversion paths are ranked.
///
/// A path's cost is affine in the tuple count (`fixed + per_tuple · t`), so
/// which path is cheapest can in principle flip with `t`; ranking once at a
/// representative mid-size cardinality keeps the table precomputable and
/// the enumeration deterministic. The chosen path's *exact* affine cost is
/// then charged at the actual cardinality.
pub const REF_TUPLES: f64 = 1e6;

/// Cheapest conversion path between one ordered platform pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionPath {
    /// Summed fixed setup cost of every channel on the path.
    pub fixed: f64,
    /// Summed per-tuple cost of every channel on the path.
    pub per_tuple: f64,
    /// Number of direct channels traversed (0 for the identity).
    pub hops: u8,
}

impl ConversionPath {
    /// Cost of moving `tuples` tuples along this path.
    #[inline]
    pub fn cost(&self, tuples: f64) -> f64 {
        self.fixed + self.per_tuple * tuples
    }
}

/// All-pairs conversion table over `k` platforms, flat row-major `k × k`.
#[derive(Debug, Clone)]
pub struct ConversionGraph {
    k: usize,
    /// `f64::INFINITY` fixed cost encodes "no path".
    path_fixed: Vec<f64>,
    path_rate: Vec<f64>,
    path_hops: Vec<u8>,
}

impl ConversionGraph {
    /// Build from direct channels `(from, to, fixed, per_tuple)` and run
    /// all-pairs cheapest paths. Duplicate declarations keep the cheaper
    /// channel (ranked at [`REF_TUPLES`]).
    pub fn from_channels(k: usize, channels: &[(PlatformId, PlatformId, f64, f64)]) -> Self {
        assert!(k >= 1);
        let idx = |a: usize, b: usize| a * k + b;
        let mut fixed = vec![f64::INFINITY; k * k];
        let mut rate = vec![f64::INFINITY; k * k];
        let mut hops = vec![u8::MAX; k * k];
        for p in 0..k {
            fixed[idx(p, p)] = 0.0;
            rate[idx(p, p)] = 0.0;
            hops[idx(p, p)] = 0;
        }
        for &(from, to, f, r) in channels {
            debug_assert!(
                from.index() < k && to.index() < k,
                "channel endpoint out of range"
            );
            debug_assert!(f >= 0.0 && r >= 0.0, "negative channel cost");
            let i = idx(from.index(), to.index());
            if f + r * REF_TUPLES < fixed[i] + rate[i] * REF_TUPLES {
                fixed[i] = f;
                rate[i] = r;
                hops[i] = 1;
            }
        }
        // Floyd–Warshall on the affine costs evaluated at REF_TUPLES.
        for via in 0..k {
            for a in 0..k {
                for b in 0..k {
                    let (i, j, t) = (idx(a, via), idx(via, b), idx(a, b));
                    let through_fixed = fixed[i] + fixed[j];
                    let through_rate = rate[i] + rate[j];
                    if through_fixed + through_rate * REF_TUPLES < fixed[t] + rate[t] * REF_TUPLES {
                        fixed[t] = through_fixed;
                        rate[t] = through_rate;
                        hops[t] = hops[i].saturating_add(hops[j]);
                    }
                }
            }
        }
        ConversionGraph {
            k,
            path_fixed: fixed,
            path_rate: rate,
            path_hops: hops,
        }
    }

    /// Cheapest path `from -> to`; `None` when structurally infeasible.
    /// The identity path (`from == to`) is free.
    #[inline]
    pub fn path(&self, from: PlatformId, to: PlatformId) -> Option<ConversionPath> {
        debug_assert!(
            from.index() < self.k && to.index() < self.k,
            "conversion lookup out of range"
        );
        let i = from.index() * self.k + to.index();
        let fixed = self.path_fixed[i];
        if fixed.is_infinite() {
            return None;
        }
        Some(ConversionPath {
            fixed,
            per_tuple: self.path_rate[i],
            hops: self.path_hops[i],
        })
    }

    /// Cost of moving `tuples` tuples `from -> to` (`0.0` identity,
    /// `f64::INFINITY` when no path exists).
    #[inline]
    pub fn cost(&self, from: PlatformId, to: PlatformId, tuples: f64) -> f64 {
        match self.path(from, to) {
            Some(p) => p.cost(tuples),
            None => f64::INFINITY,
        }
    }

    /// Mean fixed cost over all feasible inbound paths into `to` (excluding
    /// the identity). Feeds the per-destination-platform conversion weights
    /// of the analytic oracle, which sees only per-destination aggregate
    /// cells in the Fig-5 layout.
    pub fn mean_inbound_fixed(&self, to: PlatformId) -> f64 {
        self.mean_inbound(to, &self.path_fixed)
    }

    /// Mean per-tuple cost over all feasible inbound paths into `to`.
    pub fn mean_inbound_per_tuple(&self, to: PlatformId) -> f64 {
        self.mean_inbound(to, &self.path_rate)
    }

    fn mean_inbound(&self, to: PlatformId, table: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for from in 0..self.k {
            if from == to.index() {
                continue;
            }
            let v = table[from * self.k + to.index()];
            if v.is_finite() && self.path_fixed[from * self.k + to.index()].is_finite() {
                sum += v;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PlatformId {
        PlatformId::from_index(i)
    }

    #[test]
    fn identity_is_free_and_missing_pairs_are_infeasible() {
        let g = ConversionGraph::from_channels(3, &[(pid(0), pid(1), 2.0, 1e-6)]);
        assert_eq!(g.cost(pid(0), pid(0), 1e9), 0.0);
        assert_eq!(g.path(pid(2), pid(1)), None);
        assert!(g.cost(pid(2), pid(1), 10.0).is_infinite());
        let p = g.path(pid(0), pid(1)).unwrap();
        assert_eq!(p.hops, 1);
        assert!((g.cost(pid(0), pid(1), 100.0) - (2.0 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn multi_hop_path_is_found_when_no_direct_channel_exists() {
        // 0 -> 1 -> 2, no direct 0 -> 2.
        let g = ConversionGraph::from_channels(
            3,
            &[(pid(0), pid(1), 1.0, 1e-7), (pid(1), pid(2), 2.0, 2e-7)],
        );
        let p = g.path(pid(0), pid(2)).expect("two-hop path");
        assert_eq!(p.hops, 2);
        assert!((p.fixed - 3.0).abs() < 1e-12);
        assert!((p.per_tuple - 3e-7).abs() < 1e-18);
    }

    #[test]
    fn cheaper_indirect_route_beats_an_expensive_direct_channel() {
        let g = ConversionGraph::from_channels(
            3,
            &[
                (pid(0), pid(2), 100.0, 1e-6),
                (pid(0), pid(1), 1.0, 1e-7),
                (pid(1), pid(2), 1.0, 1e-7),
            ],
        );
        let p = g.path(pid(0), pid(2)).unwrap();
        assert_eq!(p.hops, 2);
        assert!((p.fixed - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_channels_keep_the_cheaper_one() {
        let g = ConversionGraph::from_channels(
            2,
            &[(pid(0), pid(1), 9.0, 1e-6), (pid(0), pid(1), 3.0, 1e-6)],
        );
        assert!((g.path(pid(0), pid(1)).unwrap().fixed - 3.0).abs() < 1e-12);
    }

    #[test]
    fn inbound_means_skip_infeasible_sources() {
        let g = ConversionGraph::from_channels(
            3,
            &[(pid(0), pid(2), 4.0, 2e-6), (pid(1), pid(2), 8.0, 4e-6)],
        );
        assert!((g.mean_inbound_fixed(pid(2)) - 6.0).abs() < 1e-12);
        assert!((g.mean_inbound_per_tuple(pid(2)) - 3e-6).abs() < 1e-18);
        // Platform 0 has no inbound paths at all.
        assert_eq!(g.mean_inbound_fixed(pid(0)), 0.0);
    }
}
