//! Scope bitsets and Def-2 pruning footprints.
//!
//! A subplan's *pruning footprint* is the multiset of (boundary operator,
//! platform) pairs — boundary operators are the operators of the scope with
//! a dataflow edge to an operator outside the scope. Two subplans with equal
//! footprints interact identically with the rest of the plan, so `prune`
//! keeps only the cheapest row per footprint (lossless, Lemma 1). The
//! footprint is hashed to a `u64` key with the workspace's SplitMix64
//! finalizer ([`mix64`]). The enumerator hashes each input row of a merge
//! over its side of the merged boundary and numbers the rows through a
//! [`FootprintTable`]; a staged row's footprint is then the pair of its
//! inputs' numbers, so pruning hashes and probes once per input row, not
//! once per staged row.

use robopt_plan::index::KeyMap;
use robopt_plan::rng::mix64;

/// A subplan scope over at most 128 operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Scope(pub u128);

impl Scope {
    #[inline]
    pub fn singleton(op: u32) -> Self {
        Scope(1u128 << op)
    }

    #[inline]
    pub fn contains(self, op: u32) -> bool {
        self.0 & (1u128 << op) != 0
    }

    #[inline]
    pub fn union(self, other: Scope) -> Scope {
        Scope(self.0 | other.0)
    }

    /// The scope containing every operator of an `n`-operator plan.
    #[inline]
    pub fn full(n: usize) -> Self {
        debug_assert!(n <= 128, "scope bitsets hold at most 128 operators");
        if n >= 128 {
            Scope(u128::MAX)
        } else {
            Scope((1u128 << n) - 1)
        }
    }

    #[inline]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// The operators of the scope in ascending id order: one step per
    /// member (lowest set bit, then clear it), not one per plan operator.
    #[inline]
    pub fn ops(self) -> impl Iterator<Item = u32> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let op = bits.trailing_zeros();
                bits &= bits - 1;
                op
            })
        })
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Hash the footprint of a row: `boundary_ops` must be in ascending op-id
/// order (canonical form — Def. 2's sorted pair list) and `assign` is the
/// row's full per-operator assignment array.
#[inline]
pub fn footprint_hash(boundary_ops: &[u32], assign: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &op in boundary_ops {
        debug_assert!((op as usize) < assign.len());
        let pair = ((op as u64) << 8) | assign[op as usize] as u64;
        h = mix64(h ^ pair).rotate_left(17) ^ h;
    }
    h
}

/// Incremental plan-signature hasher over the footprint mixer.
///
/// The service layer's memoization cache keys requests by a `u64`
/// signature; deriving it here keeps the key construction on the same
/// SplitMix-style mixer (and the same avalanche guarantees) as
/// [`footprint_hash`], so cache keys and pruning footprints share one
/// hashing discipline. Feed words with [`SigHasher::write_u64`] /
/// [`SigHasher::write_f64_bits`] — `f64` inputs hash by bit pattern, so
/// two requests collide only when they are bit-identical — and take the
/// finalized key with [`SigHasher::finish`]. Pure function of the write
/// sequence: no per-process seed, no addresses, no time.
#[derive(Debug, Clone)]
pub struct SigHasher {
    h: u64,
}

impl Default for SigHasher {
    fn default() -> Self {
        SigHasher::new()
    }
}

impl SigHasher {
    pub fn new() -> Self {
        SigHasher {
            h: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Absorb one word. Same combine step as [`footprint_hash`].
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.h = mix64(self.h ^ v).rotate_left(17) ^ self.h;
    }

    /// Absorb an `f64` by bit pattern (`-0.0` and `0.0` hash differently;
    /// every NaN payload is its own value — bit-identity is the contract).
    #[inline]
    pub fn write_f64_bits(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Finalized signature for everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        mix64(self.h)
    }
}

/// The `u64 -> u32` map the pruning pass numbers a merge's input rows by
/// footprint in (footprint → number), and the plan cache its entries
/// (signature → position): the workspace's one open-addressing table,
/// [`robopt_plan::index`], whose entries sit in **insertion order** — no
/// per-process hasher seed, so nothing that reads it can vary run to run
/// (`clippy::disallowed_types` rejects `std`'s seeded `HashMap` in every
/// product library). `clear` keeps both allocations, so a warmed table
/// serves the enumeration hot loop without growing (same pooling discipline
/// as [`crate::EnumMatrix`]).
pub type FootprintTable = KeyMap<u32>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_ops() {
        let s = Scope::singleton(3).union(Scope::singleton(100));
        assert!(s.contains(3) && s.contains(100) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Scope::default().is_empty());
        assert_eq!(s.ops().collect::<Vec<_>>(), [3, 100]);
        assert_eq!(Scope::default().ops().next(), None);
        assert!(Scope::full(128).ops().eq(0..128));
    }

    #[test]
    fn footprint_depends_on_boundary_assignments_only() {
        // Same boundary assignments, different interior assignment -> equal.
        let a1 = [0u8, 1, 0, 1];
        let a2 = [0u8, 0, 0, 1];
        let boundary = [0u32, 3];
        assert_eq!(
            footprint_hash(&boundary, &a1),
            footprint_hash(&boundary, &a2)
        );
        // Different boundary assignment -> different (w.h.p.).
        let a3 = [1u8, 1, 0, 1];
        assert_ne!(
            footprint_hash(&boundary, &a1),
            footprint_hash(&boundary, &a3)
        );
        // Order/identity of boundary ops matters.
        assert_ne!(footprint_hash(&[0, 3], &a1), footprint_hash(&[0, 2], &a1));
    }

    #[test]
    fn footprint_table_get_insert_replace() {
        let mut t = FootprintTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        t.insert(42, 7);
        t.insert(43, 8);
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.get(43), Some(8));
        assert_eq!(t.get(44), None);
        t.insert(42, 9); // replace, not duplicate
        assert_eq!(t.get(42), Some(9));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn footprint_table_survives_growth_and_adversarial_keys() {
        let mut t = FootprintTable::new();
        // Sequential keys and keys colliding in the low bits both force
        // probing and several rehashes.
        for i in 0..1000u64 {
            t.insert(i << 32, i as u32);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(i << 32), Some(i as u32), "key {i}");
        }
        assert_eq!(t.get(1000u64 << 32), None);
    }

    #[test]
    fn footprint_table_clear_reuses() {
        let mut t = FootprintTable::new();
        let keys = [99u64, 3, 500, 1, 77];
        for (v, &k) in keys.iter().enumerate() {
            t.insert(k, v as u32);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(99), None);
        t.insert(5, 1);
        assert_eq!(t.get(5), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sig_hasher_is_deterministic_and_order_sensitive() {
        let mut a = SigHasher::new();
        let mut b = SigHasher::new();
        for v in [1u64, 2, 3] {
            a.write_u64(v);
            b.write_u64(v);
        }
        assert_eq!(a.finish(), b.finish(), "same writes, same signature");

        let mut rev = SigHasher::new();
        for v in [3u64, 2, 1] {
            rev.write_u64(v);
        }
        assert_ne!(a.finish(), rev.finish(), "write order must matter");

        // f64 inputs hash by bit pattern: 0.0 and -0.0 are distinct keys.
        let mut pos = SigHasher::new();
        pos.write_f64_bits(0.0);
        let mut neg = SigHasher::new();
        neg.write_f64_bits(-0.0);
        assert_ne!(pos.finish(), neg.finish());

        // Empty-prefix sensitivity: writing a zero word changes the key.
        let mut zero = SigHasher::new();
        zero.write_u64(0);
        assert_ne!(zero.finish(), SigHasher::new().finish());
    }

    #[test]
    fn scope_full() {
        assert_eq!(Scope::full(0), Scope::default());
        assert_eq!(Scope::full(3).len(), 3);
        assert_eq!(Scope::full(128).len(), 128);
        assert!(Scope::full(5).contains(4));
        assert!(!Scope::full(5).contains(5));
    }
}
