//! The workspace's one open-addressing hash table. [`HashIndex`] is the
//! table, over entries its caller keeps in a `Vec`; [`KeyMap`] is the
//! `u64`-keyed map over it. Def-2 pruning (`robopt_vector::FootprintTable`
//! in the enumerator and the Rheem-ML strawman), the plan cache and the
//! engine's keyed operators and join all probe through this one table.
//!
//! Nothing here depends on a per-process seed: a `KeyMap` keeps its entries
//! in insertion order, and where an entry lands is a pure function of the
//! hashes inserted before it.

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

    /// Forget every entry, keeping the table's size and allocation.
    pub fn clear(&mut self) {
        self.slots.fill(0);
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
}

/// A deterministic `u64 → V` map: `(key, value)` entries in insertion
/// order, indexed by a [`HashIndex`] over the SplitMix64 finalizer
/// ([`mix64`]) of the key. `clear` keeps both allocations, so a warmed map
/// serves a hot loop without growing.
#[derive(Debug, Clone, Default)]
pub struct KeyMap<V> {
    index: HashIndex,
    entries: Vec<(u64, V)>,
}

impl<V: Copy> KeyMap<V> {
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
        self.index.clear();
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
                match rng.gen_range(3) {
                    0 => {
                        let held = model.get(&key).copied();
                        model.entry(key).or_insert(value);
                        assert_eq!(map.insert_or_get(key, value), held, "{round}/{step}");
                    }
                    1 => {
                        model.insert(key, value);
                        map.insert(key, value);
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
        }
    }
}
