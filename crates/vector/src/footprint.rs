//! Scope bitsets and Def-2 pruning footprints.
//!
//! A subplan's *pruning footprint* is the multiset of (boundary operator,
//! platform) pairs — boundary operators are the operators of the scope with
//! a dataflow edge to an operator outside the scope. Two subplans with equal
//! footprints interact identically with the rest of the plan, so `prune`
//! keeps only the cheapest row per footprint (lossless, Lemma 1). The
//! footprint is hashed to a `u64` key with a SplitMix-style mixer; `prune`
//! is then one hash-map pass.

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

    /// Lowest operator id in the scope — the canonical union-find root the
    /// enumerator anchors a pre-built unit at. `None` for the empty scope.
    #[inline]
    pub fn min_op(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros())
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

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
        h = mix(h ^ pair).rotate_left(17) ^ h;
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
        self.h = mix(self.h ^ v).rotate_left(17) ^ self.h;
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
        mix(self.h)
    }
}

/// A deterministic `u64 -> u32` map for pruning footprints.
///
/// Open addressing (linear probing) over a power-of-two slot table keyed by
/// a SplitMix64-finalized hash, with entries kept in a side `Vec` in
/// **insertion order** — iteration order is a pure function of the insert
/// sequence, never of a per-process hasher seed. This replaces the
/// `std::collections::HashMap<u64, _>` footprint tables the enumerators
/// used: `std`'s map is seeded per process (`RandomState`), so any code
/// path that ever iterates it is a latent cross-run nondeterminism bug
/// `clippy::disallowed_types` (clippy.toml) now rejects outright in every
/// product library.
///
/// `clear` keeps both allocations, so a warmed table serves the
/// enumeration hot loop without growing (same pooling discipline as
/// [`crate::EnumMatrix`]).
#[derive(Debug, Clone, Default)]
pub struct FootprintTable {
    /// Slot table: 0 = empty, else entry index + 1. Length is a power of
    /// two; `mask = slots.len() - 1`.
    slots: Vec<u32>,
    /// `(key, value)` pairs in insertion order.
    entries: Vec<(u64, u32)>,
}

impl FootprintTable {
    const MIN_SLOTS: usize = 16;

    pub fn new() -> Self {
        FootprintTable::default()
    }

    /// Remove every entry, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        self.slots.fill(0);
        self.entries.clear();
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probe start for `key` in the current slot table.
    #[inline]
    fn start(&self, key: u64) -> usize {
        mix(key) as usize & (self.slots.len() - 1)
    }

    /// Value stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.start(key);
        loop {
            match self.slots.get(i).copied() {
                None | Some(0) => return None,
                Some(slot) => {
                    if let Some(&(k, v)) = self.entries.get(slot as usize - 1) {
                        if k == key {
                            return Some(v);
                        }
                    }
                }
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// Insert `key -> value`, replacing any previous value for `key`.
    pub fn insert(&mut self, key: u64, value: u32) {
        if self.entries.len() + 1 > self.slots.len() / 8 * 7 {
            self.grow();
        }
        let mut i = self.start(key);
        loop {
            match self.slots.get(i).copied() {
                None | Some(0) => break,
                Some(slot) => {
                    if let Some(e) = self.entries.get_mut(slot as usize - 1) {
                        if e.0 == key {
                            e.1 = value;
                            return;
                        }
                    }
                }
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
        self.entries.push((key, value));
        if let Some(s) = self.slots.get_mut(i) {
            *s = self.entries.len() as u32;
        }
    }

    /// Double the slot table and re-seat every entry (values untouched,
    /// insertion order preserved by construction).
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        let mask = new_len - 1;
        for (idx, &(key, _)) in self.entries.iter().enumerate() {
            let mut i = mix(key) as usize & mask;
            loop {
                match self.slots.get(i).copied() {
                    None | Some(0) => break,
                    Some(_) => i = (i + 1) & mask,
                }
            }
            if let Some(s) = self.slots.get_mut(i) {
                *s = idx as u32 + 1;
            }
        }
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.entries.iter().copied()
    }
}

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
    fn footprint_table_iterates_in_insertion_order_and_clear_reuses() {
        let mut t = FootprintTable::new();
        let keys = [99u64, 3, 500, 1, 77];
        for (v, &k) in keys.iter().enumerate() {
            t.insert(k, v as u32);
        }
        let got: Vec<(u64, u32)> = t.iter().collect();
        let want: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(v, &k)| (k, v as u32))
            .collect();
        assert_eq!(got, want, "iteration must follow insertion order");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(99), None);
        t.insert(5, 1);
        assert_eq!(t.get(5), Some(1));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(5, 1)]);
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
    fn scope_full_and_min_op() {
        assert_eq!(Scope::full(0), Scope::default());
        assert_eq!(Scope::full(3).len(), 3);
        assert_eq!(Scope::full(128).len(), 128);
        assert!(Scope::full(5).contains(4));
        assert!(!Scope::full(5).contains(5));
        assert_eq!(Scope::default().min_op(), None);
        assert_eq!(Scope::singleton(7).min_op(), Some(7));
        assert_eq!(
            Scope::singleton(9).union(Scope::singleton(2)).min_op(),
            Some(2)
        );
    }
}
