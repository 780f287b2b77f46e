//! The workspace's one open-addressing hash table. [`HashIndex`] is the
//! table, over entries its caller keeps in a `Vec`; [`KeyMap`] is the
//! `u64`-keyed map over it. Def-2 pruning (`robopt_vector::FootprintTable`
//! in the enumerator and the Rheem-ML strawman), the plan cache and the
//! engine's keyed operators and join all probe through this one table.
//!
//! Nothing here depends on a per-process seed: a `KeyMap` keeps its entries
//! in insertion order (a removal moves the last one into the hole), and
//! where an entry lands is a pure function of the hashes inserted and
//! removed before it. Removal is backward-shift deletion, so the table
//! holds no tombstones and a probe still ends at the first free slot.

use crate::rng::mix64;

/// Open addressing over entries kept in a `Vec` elsewhere. A slot holds
/// the upper half of the entry's hash over its position plus one (0 is
/// free), so a probe reads an entry only when that tag matches; probing is
/// linear from the hash's low bits, and the table doubles before it is
/// half full. Positions fit the lower half: 2³² entries of a record each
/// would be hundreds of gigabytes.
#[derive(Debug, Clone)]
pub struct HashIndex {
    slots: Vec<u64>,
}

/// The bits of a slot that hold the hash tag.
const TAG: u64 = !0 << 32;

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex::with_capacity(0)
    }
}

impl HashIndex {
    /// A table that holds `entries` entries before it first doubles.
    pub fn with_capacity(entries: usize) -> Self {
        HashIndex {
            slots: vec![0; (2 * entries).next_power_of_two().max(16)],
        }
    }

    /// Forget the `len` indexed entries, hashed as `hash_of` says,
    /// keeping the table's size and allocation: empty the run of slots from
    /// each entry's home onward, not every slot, so a clear costs what was
    /// indexed, not what the largest use left behind (the pruning table
    /// after one large merge grew it). An entry lies between its home and
    /// the end of the run through it, and a walk empties a run from where
    /// it starts to its end, so each walk finds its entry or finds it gone.
    /// Private: a `len` or `hash_of` other than the live entries' would
    /// leave slots behind, so only [`KeyMap::clear`] calls it.
    fn clear(&mut self, len: usize, hash_of: impl Fn(usize) -> u64) {
        let mask = self.slots.len() - 1;
        for entry in 0..len {
            let mut slot = hash_of(entry) as usize & mask;
            while self.slots[slot] != 0 {
                self.slots[slot] = 0;
                slot = (slot + 1) & mask;
            }
        }
    }

    /// The entry hashed to `hash` that `is` accepts, or the free slot where
    /// it would go.
    #[inline]
    pub fn probe(&self, hash: u64, mut is: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let held = self.slots[slot];
            if held == 0 {
                return Err(slot);
            }
            let entry = (held & !TAG) as usize - 1;
            if (held ^ hash) & TAG == 0 && is(entry) {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Put the `len`-th entry, hashed to `hash`, into the free `slot` that
    /// [`HashIndex::probe`] named, re-placing all of them in a table twice
    /// the size when this one is half full.
    #[inline]
    pub fn fill(&mut self, slot: usize, hash: u64, len: usize, hash_of: impl Fn(usize) -> u64) {
        self.slots[slot] = hash & TAG | len as u64;
        if 2 * len < self.slots.len() {
            return;
        }
        // The entries know their hashes, so the old slots are not read
        // while the entries are re-placed.
        let size = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(size, 0);
        let mask = size - 1;
        for entry in 0..len {
            let hash = hash_of(entry);
            let mut at = hash as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = hash & TAG | (entry + 1) as u64;
        }
    }

    /// The slot that holds the `entry`-th entry, hashed to `hash`; the entry
    /// must be indexed.
    fn slot_of(&self, hash: u64, entry: usize) -> usize {
        let mask = self.slots.len() - 1;
        let held = hash & TAG | (entry + 1) as u64;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != held && self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Unindex the `entry`-th entry, hashed to `hash`, by backward-shift
    /// deletion: each later slot of its probe run whose entry may live
    /// further back moves into the hole, so every remaining entry is still
    /// found by [`HashIndex::probe`] without a tombstone. `hash_of` gives an
    /// indexed entry's hash, as in [`HashIndex::fill`]. The caller keeps its
    /// entries where they are, or renumbers them with
    /// [`HashIndex::repoint`].
    pub fn remove(&mut self, hash: u64, entry: usize, hash_of: impl Fn(usize) -> u64) {
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_of(hash, entry);
        let mut at = (hole + 1) & mask;
        loop {
            let held = self.slots[at];
            if held == 0 {
                break;
            }
            // It may move back unless its home lies in `(hole, at]`.
            let home = hash_of((held & !TAG) as usize - 1) as usize & mask;
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.slots[hole] = held;
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.slots[hole] = 0;
    }

    /// Index the entry hashed to `hash` at position `to` instead of `from`:
    /// the caller moved it, as `Vec::swap_remove` moves the last entry.
    pub fn repoint(&mut self, hash: u64, from: usize, to: usize) {
        let slot = self.slot_of(hash, from);
        self.slots[slot] = hash & TAG | (to + 1) as u64;
    }
}

/// A deterministic `u64 → V` map: `(key, value)` entries in insertion
/// order until a [`KeyMap::remove`], indexed by a [`HashIndex`] over the
/// SplitMix64 finalizer ([`mix64`]) of the key. `V` is any value: a row
/// position for pruning, a whole cached response for the plan cache.
/// `clear` keeps both allocations, so a warmed map serves a hot loop
/// without growing.
#[derive(Debug, Clone, Default)]
pub struct KeyMap<V> {
    index: HashIndex,
    entries: Vec<(u64, V)>,
}

impl<V> KeyMap<V> {
    pub fn new() -> Self {
        KeyMap::with_capacity(0)
    }

    /// A map that holds `entries` keys before its table first doubles.
    pub fn with_capacity(entries: usize) -> Self {
        KeyMap {
            index: HashIndex::with_capacity(entries),
            entries: Vec::with_capacity(entries),
        }
    }

    /// Remove every entry, keeping both allocations for reuse.
    pub fn clear(&mut self) {
        let entries = &self.entries;
        self.index.clear(entries.len(), |i| mix64(entries[i].0));
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

    /// The value stored under `key`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let at = self.find(mix64(key), key).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Every `(key, value)` in entry order: insertion order, as reordered
    /// by each [`KeyMap::remove`].
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|(key, value)| (*key, value))
    }

    /// Store `key → value`, replacing any previous value for `key`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) {
        let hash = mix64(key);
        match self.find(hash, key) {
            Ok(i) => self.entries[i].1 = value,
            Err(slot) => self.push(slot, hash, key, value),
        }
    }

    #[inline]
    fn find(&self, hash: u64, key: u64) -> Result<usize, usize> {
        let entries = &self.entries;
        self.index.probe(hash, |i| entries[i].0 == key)
    }

    /// Remove `key` and return its value. The last entry moves into the
    /// removed one's place (`Vec::swap_remove`), so after a removal the
    /// entries are no longer in insertion order.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let hash = mix64(key);
        let at = self.find(hash, key).ok()?;
        let entries = &self.entries;
        self.index.remove(hash, at, |i| mix64(entries[i].0));
        let (_, value) = self.entries.swap_remove(at);
        if let Some(&(moved, _)) = self.entries.get(at) {
            self.index.repoint(mix64(moved), self.entries.len(), at);
        }
        Some(value)
    }

    /// Append `key → value`, hashed to `hash`, and index it in the free
    /// `slot` that `find` named.
    #[inline]
    fn push(&mut self, slot: usize, hash: u64, key: u64, value: V) {
        self.entries.push((key, value));
        let entries = &self.entries;
        let hash_of = |i: usize| mix64(entries[i].0);
        self.index.fill(slot, hash, entries.len(), hash_of);
    }
}

/// Lookups that answer with a copy of the value, as the pruning table's
/// `u32` row positions and the engine's join-key set are read.
impl<V: Copy> KeyMap<V> {
    /// Value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let found = self.find(mix64(key), key);
        found.ok().map(|i| self.entries[i].1)
    }

    /// The value already stored under `key`, or — if there is none —
    /// `None` after storing `value` under it: one probe either way.
    #[inline]
    pub fn insert_or_get(&mut self, key: u64, value: V) -> Option<V> {
        let hash = mix64(key);
        match self.find(hash, key) {
            Ok(i) => Some(self.entries[i].1),
            Err(slot) => {
                self.push(slot, hash, key, value);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn a_key_map_answers_as_a_btree_map_does() {
        let mut rng = SplitMix64::new(0x1DE7);
        let mut map = KeyMap::new();
        let mut model = BTreeMap::new();
        let mut peak = 0;
        for round in 0..4 {
            // Keys from a domain a few times the live set, so inserts both
            // hit and miss; low-bit-equal and extreme keys among them.
            let domain = [40u64, 300, 1_500, 6_000][round];
            for step in 0..20_000 {
                let raw = rng.next_u64() % domain;
                let key = match raw % 4 {
                    0 => raw << 32,
                    1 => u64::MAX - raw,
                    _ => raw,
                };
                let value = rng.next_u64() as u32;
                match rng.gen_range(5) {
                    0 => {
                        let held = model.get(&key).copied();
                        model.entry(key).or_insert(value);
                        assert_eq!(map.insert_or_get(key, value), held, "{round}/{step}");
                    }
                    1 => {
                        model.insert(key, value);
                        map.insert(key, value);
                    }
                    2 => {
                        // Half the time the last entry, which nothing moves
                        // into; otherwise the drawn key, present or not.
                        let last = map.entries.last().map(|&(last, _)| last);
                        let key = last.filter(|_| step % 2 == 0).unwrap_or(key);
                        assert_eq!(map.remove(key), model.remove(&key), "{round}/{step}");
                        assert_eq!(map.get(key), None, "{round}/{step}");
                    }
                    _ => assert_eq!(map.get(key), model.get(&key).copied(), "{round}/{step}"),
                }
                assert_eq!(map.len(), model.len(), "{round}/{step}");
                peak = peak.max(map.len());
            }
            for (&key, &value) in &model {
                assert_eq!(map.get(key), Some(value), "round {round}");
            }
            // Reuse after clear: every old key is gone.
            let old: Vec<u64> = model.keys().copied().collect();
            map.clear();
            model.clear();
            assert!(map.is_empty());
            assert!(old.iter().all(|&key| map.get(key).is_none()));
        }
        // A 16-slot table doubles at 8, 16 and 32 entries, and on.
        assert!(peak > 64, "peak {peak}");

        // Values that are not `Copy`: changed in place, removed, and walked
        // in entry order, which is insertion order with each removal moving
        // the last entry into the hole.
        let mut map: KeyMap<String> = KeyMap::new();
        let mut model = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();
        for step in 0..20_000 {
            let raw = rng.next_u64() % 300;
            let key = if raw.is_multiple_of(2) {
                raw << 32
            } else {
                raw
            };
            match rng.gen_range(4) {
                0 => {
                    let value = format!("v{step}");
                    if model.insert(key, value.clone()).is_none() {
                        order.push(key);
                    }
                    map.insert(key, value);
                }
                1 => {
                    let held = model.remove(&key);
                    if let Some(at) = order.iter().position(|&k| k == key) {
                        order.swap_remove(at);
                    }
                    assert_eq!(map.remove(key), held, "{step}");
                }
                _ => {
                    if let Some(value) = model.get_mut(&key) {
                        value.push('+');
                    }
                    let got = map.get_mut(key).map(|value| {
                        value.push('+');
                        value.clone()
                    });
                    assert_eq!(got.as_ref(), model.get(&key), "{step}");
                }
            }
            assert_eq!(map.len(), model.len(), "{step}");
            if step % 1_000 == 0 || step == 19_999 {
                let walked: Vec<(u64, &String)> = map.iter().collect();
                let want: Vec<(u64, &String)> = order.iter().map(|k| (*k, &model[k])).collect();
                assert_eq!(walked, want, "{step}");
            }
        }
    }

    /// Entries `(key, hash)` indexed under a hash the test picks.
    fn index_of(entries: &[(u64, u64)]) -> HashIndex {
        let mut index = HashIndex::default();
        for (len, &(key, hash)) in entries.iter().enumerate() {
            let free = index.probe(hash, |i| entries[i].0 == key);
            let slot = free.expect_err("keys are distinct");
            index.fill(slot, hash, len + 1, |i| entries[i].1);
        }
        index
    }

    #[test]
    fn colliding_hashes_still_find_their_own_entry() {
        let tag = 0xABCD_1234u64 << 32;
        // Every key shares the tag, with a low half of its own; then every
        // key's whole hash is the same. 100 entries double the table thrice.
        let shared_tag: Vec<(u64, u64)> = (0..100).map(|k| (k, tag | (k * 7))).collect();
        let shared_hash: Vec<(u64, u64)> = (0..100).map(|k| (k * 31, tag | 5)).collect();
        for entries in [shared_tag, shared_hash] {
            let index = index_of(&entries);
            for (at, &(key, hash)) in entries.iter().enumerate() {
                assert_eq!(index.probe(hash, |i| entries[i].0 == key), Ok(at));
            }
            let (_, hash) = entries[0];
            assert!(index.probe(hash, |i| entries[i].0 == u64::MAX).is_err());
            removals_keep_the_rest_findable(index, entries);
        }
    }

    /// A clear empties every slot by walking the entries' runs, whether
    /// they are few in a large table or fill it to its doubling point: runs
    /// of colliding homes, runs that wrap past the last slot and runs that
    /// removals shifted back included.
    #[test]
    fn a_clear_empties_every_slot() {
        let mut rng = SplitMix64::new(0xC1EA);
        for (live, homes) in [
            (0, 1),
            (1, 1),
            (40, 3),
            (40, 8192),
            (400, 8192),
            (3_000, 64),
        ] {
            let mut index = HashIndex::with_capacity(4_096);
            let mask = index.slots.len() as u64 - 1;
            let mut entries: Vec<(u64, u64)> = Vec::new();
            for key in 0..live {
                let hash = rng.next_u64() & TAG | (mask - rng.gen_range(homes) as u64);
                let slot = index.probe(hash, |_| false).expect_err("keys are distinct");
                entries.push((key, hash));
                index.fill(slot, hash, entries.len(), |i| entries[i].1);
            }
            for _ in 0..live / 4 {
                let at = rng.gen_range(entries.len());
                index.remove(entries[at].1, at, |i| entries[i].1);
                entries.swap_remove(at);
                if let Some(&(_, moved)) = entries.get(at) {
                    index.repoint(moved, entries.len(), at);
                }
            }
            assert_eq!(index.slots.len(), 8_192, "{live} entries grew the table");
            index.clear(entries.len(), |i| entries[i].1);
            assert!(index.slots.iter().all(|&s| s == 0), "{live} entries");
        }
    }

    /// Remove every entry in a seeded order as `KeyMap::remove` does (the
    /// last entry moves into the hole), checking after each removal that
    /// the removed key is gone and every other is found where it now is.
    fn removals_keep_the_rest_findable(mut index: HashIndex, mut entries: Vec<(u64, u64)>) {
        let mut rng = SplitMix64::new(0x0DE1);
        while !entries.is_empty() {
            let at = rng.gen_range(entries.len());
            let (key, hash) = entries[at];
            index.remove(hash, at, |i| entries[i].1);
            entries.swap_remove(at);
            if let Some(&(_, moved)) = entries.get(at) {
                index.repoint(moved, entries.len(), at);
            }
            assert!(index.probe(hash, |i| entries[i].0 == key).is_err());
            for (at, &(key, hash)) in entries.iter().enumerate() {
                assert_eq!(index.probe(hash, |i| entries[i].0 == key), Ok(at));
            }
        }
        assert!(index.slots.iter().all(|&slot| slot == 0));
    }
}
