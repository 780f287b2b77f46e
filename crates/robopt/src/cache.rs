//! Plan-signature memoization (DESIGN §10).
//!
//! [`PlanCache`] maps [`crate::api::OptimizeRequest::signature`] keys to
//! finished [`OptimizeResponse`]s with the same open-addressing scheme as
//! `robopt_vector::FootprintTable`: a power-of-two slot array of
//! entry-index-plus-one handles over an insertion-ordered entry vector.
//! Slots are sized at twice capacity up front, so the load factor never
//! exceeds ½ and probes always terminate at an empty slot.
//!
//! # Eviction
//!
//! When full, the entry with the smallest **benefit score** is evicted:
//!
//! ```text
//! score(e) = work(e) × (last_tick(e) + 1)
//! ```
//!
//! where `work` is the enumeration's `generated` counter — a deterministic
//! proxy for the cost a hit saves — and `last_tick` is the facade's logical
//! request counter at the entry's last touch. Wall-clock time never enters
//! the score, so eviction order is a pure function of the request stream
//! (ties break toward the oldest entry index). "Cheap and cold" falls out
//! first; "expensive or hot" survives.

use robopt_plan::rng::mix64;

use crate::api::OptimizeResponse;

/// Counter snapshot reported by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a cached response.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by benefit-weighted eviction.
    pub evictions: u64,
    /// Fresh insertions (replacements of an existing key not included).
    pub insertions: u64,
    /// Live entries.
    pub len: usize,
    /// Maximum live entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over lookups, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: u64,
    value: OptimizeResponse,
    /// Deterministic recompute-cost proxy (enumeration `generated`).
    work: u64,
    /// Logical tick of the last touch (insert or hit).
    last_tick: u64,
}

/// Deterministic plan-signature → response cache. See the module docs.
#[derive(Debug, Clone)]
pub struct PlanCache {
    /// `slots[i] == 0` means empty, else `entry index + 1`.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl PlanCache {
    /// Default entry capacity for the service facade.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` responses. `0` disables storage
    /// (every lookup misses, inserts are dropped) while keeping counters.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            slots: vec![0; slot_len(capacity)],
            entries: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    /// Maximum live entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }

    /// Drop every entry (model swap, explicit flush); counters survive so
    /// telemetry spans flushes.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.slots.fill(0);
    }

    /// Look up `key`, touching its recency to `tick` on a hit.
    pub fn lookup(&mut self, key: u64, tick: u64) -> Option<OptimizeResponse> {
        match self.find(key) {
            Some(i) => {
                self.hits += 1;
                let entry = self.entries.get_mut(i)?;
                entry.last_tick = tick;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key → value`. `work` is the deterministic
    /// recompute-cost proxy; `tick` stamps recency. Evicts the minimum
    /// benefit-score entry when at capacity.
    pub fn insert(&mut self, key: u64, value: OptimizeResponse, work: u64, tick: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.find(key) {
            if let Some(entry) = self.entries.get_mut(i) {
                entry.value = value;
                entry.work = work;
                entry.last_tick = tick;
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_min();
        }
        let idx = self.entries.len() as u32;
        self.entries.push(Entry {
            key,
            value,
            work,
            last_tick: tick,
        });
        self.seat(key, idx);
        self.insertions += 1;
    }

    /// Entry index for `key`, probing from its home slot.
    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut slot = mix64(key) as usize & mask;
        loop {
            let handle = *self.slots.get(slot)?;
            if handle == 0 {
                return None;
            }
            let i = handle as usize - 1;
            if self.entries.get(i).map(|e| e.key) == Some(key) {
                return Some(i);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Seat `entry index + 1` in the first free probe slot for `key`.
    fn seat(&mut self, key: u64, idx: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = mix64(key) as usize & mask;
        loop {
            match self.slots.get_mut(slot) {
                Some(handle) if *handle == 0 => {
                    *handle = idx + 1;
                    return;
                }
                Some(_) => slot = (slot + 1) & mask,
                // Unreachable — load factor ≤ ½ guarantees a free slot —
                // but degrade to a dropped seat rather than spin.
                None => return,
            }
        }
    }

    /// Evict the entry with the minimum benefit score (ties → lowest
    /// entry index, i.e. the oldest insertion still alive).
    fn evict_min(&mut self) {
        let mut victim = 0usize;
        let mut best = u128::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            let score = u128::from(e.work) * (u128::from(e.last_tick) + 1);
            if score < best {
                best = score;
                victim = i;
            }
        }
        self.entries.swap_remove(victim);
        self.evictions += 1;
        // swap_remove renumbered the moved tail entry; rebuild the slot
        // array from scratch (rare: once per eviction, O(capacity)).
        self.slots.fill(0);
        for i in 0..self.entries.len() {
            let key = self.entries.get(i).map(|e| e.key);
            if let Some(key) = key {
                self.seat(key, i as u32);
            }
        }
    }
}

/// Slot-array length: next power of two ≥ `2 × capacity`, floored at 16.
fn slot_len(capacity: usize) -> usize {
    capacity.saturating_mul(2).next_power_of_two().max(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::EnumStats;

    fn resp(tag: &str, cost: f64) -> OptimizeResponse {
        OptimizeResponse {
            workload: tag.to_string(),
            signature: 0,
            assignments: vec![tag.to_string()],
            distinct_platforms: 1,
            cost,
            cost_std: 0.0,
            cost_q10: cost,
            cost_q90: cost,
            risk_policy: "expected".to_string(),
            stats: EnumStats::default(),
        }
    }

    #[test]
    fn hit_and_miss_counters_are_exact() {
        let mut cache = PlanCache::new(8);
        assert!(cache.lookup(1, 1).is_none());
        cache.insert(1, resp("a", 1.0), 10, 1);
        assert!(cache.lookup(1, 2).is_some());
        assert!(cache.lookup(1, 3).is_some());
        assert!(cache.lookup(2, 4).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (2, 2, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn colliding_keys_in_one_bucket_stay_distinct() {
        let mut cache = PlanCache::new(8);
        let mask = cache.slots.len() - 1;
        let home = mix64(11) as usize & mask;
        // Find a second key that probes from the same home slot.
        let other = (12..)
            .find(|&k| (mix64(k) as usize & mask) == home)
            .unwrap_or(11);
        assert_ne!(other, 11);
        cache.insert(11, resp("first", 1.0), 1, 1);
        cache.insert(other, resp("second", 2.0), 1, 2);
        let a = cache.lookup(11, 3).expect("first key present");
        let b = cache.lookup(other, 4).expect("second key present");
        assert_eq!(a.workload, "first");
        assert_eq!(b.workload, "second");
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn eviction_removes_minimum_benefit_and_counts_it() {
        let mut cache = PlanCache::new(2);
        // work × (tick + 1): a → 100×2, b → 10×3 (minimum), insert c.
        cache.insert(1, resp("a", 1.0), 100, 1);
        cache.insert(2, resp("b", 2.0), 10, 2);
        cache.insert(3, resp("c", 3.0), 50, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(2, 4).is_none(), "b had the lowest score");
        assert!(cache.lookup(1, 5).is_some());
        assert!(cache.lookup(3, 6).is_some());
    }

    #[test]
    fn a_hit_refreshes_recency_and_saves_the_entry() {
        let mut cache = PlanCache::new(2);
        cache.insert(1, resp("a", 1.0), 10, 1);
        cache.insert(2, resp("b", 2.0), 10, 2);
        // Touch a far later: its score now dwarfs b's despite equal work.
        assert!(cache.lookup(1, 50).is_some());
        cache.insert(3, resp("c", 3.0), 10, 51);
        assert!(cache.lookup(1, 52).is_some(), "refreshed entry survives");
        assert!(cache.lookup(2, 53).is_none(), "stale entry evicted");
    }

    #[test]
    fn reinserting_a_key_replaces_without_growing() {
        let mut cache = PlanCache::new(4);
        cache.insert(7, resp("old", 1.0), 1, 1);
        cache.insert(7, resp("new", 2.0), 1, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats().insertions,
            1,
            "replacement is not an insertion"
        );
        assert_eq!(cache.lookup(7, 3).map(|r| r.workload), Some("new".into()));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = PlanCache::new(0);
        cache.insert(1, resp("a", 1.0), 1, 1);
        assert!(cache.lookup(1, 2).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut cache = PlanCache::new(4);
        cache.insert(1, resp("a", 1.0), 1, 1);
        assert!(cache.lookup(1, 2).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.lookup(1, 3).is_none());
    }
}
