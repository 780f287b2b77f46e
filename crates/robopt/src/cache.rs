//! Plan-signature memoization (DESIGN §10).
//!
//! [`PlanCache`] maps [`crate::api::OptimizeRequest::signature`] keys to
//! finished [`OptimizeResponse`]s: a [`FootprintTable`] indexes signature →
//! position in one entry vector, so the cache probes through the same
//! open-addressing table Def-2 pruning does.
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

use robopt_vector::FootprintTable;

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
    /// Signature → position in `entries`.
    index: FootprintTable,
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
            index: FootprintTable::new(),
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
        self.index.clear();
    }

    /// Look up `key`, touching its recency to `tick` on a hit.
    pub fn lookup(&mut self, key: u64, tick: u64) -> Option<OptimizeResponse> {
        match self.index.get(key) {
            Some(i) => {
                self.hits += 1;
                let entry = self.entries.get_mut(i as usize)?;
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
        if let Some(i) = self.index.get(key) {
            if let Some(entry) = self.entries.get_mut(i as usize) {
                entry.value = value;
                entry.work = work;
                entry.last_tick = tick;
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            self.evict_min();
        }
        self.index.insert(key, self.entries.len() as u32);
        self.entries.push(Entry {
            key,
            value,
            work,
            last_tick: tick,
        });
        self.insertions += 1;
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
        // swap_remove renumbered the moved tail entry and the table has no
        // remove: rebuild the index (once per eviction, O(capacity)).
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.index.insert(e.key, i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::EnumStats;
    use robopt_plan::rng::SplitMix64;

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
        // Keys equal in their low 32 bits: the adversarial shape
        // `FootprintTable`'s own growth test uses.
        let mut cache = PlanCache::new(64);
        for i in 0..64u64 {
            cache.insert(i << 32, resp("k", i as f64), 1, i);
        }
        for i in 0..64u64 {
            let hit = cache.lookup(i << 32, 64 + i).expect("every key present");
            assert_eq!(hit.cost, i as f64, "key {i}");
        }
        assert!(cache.lookup(64 << 32, 200).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (64, 1, 0, 64));
    }

    /// The documented eviction rule on a plain vector of
    /// `(key, work, last_tick)`: minimum `work × (last_tick + 1)`, ties to
    /// the lowest index, `swap_remove`.
    struct Model {
        capacity: usize,
        entries: Vec<(u64, u64, u64)>,
    }

    impl Model {
        fn lookup(&mut self, key: u64, tick: u64) -> Option<u64> {
            let e = self.entries.iter_mut().find(|e| e.0 == key)?;
            e.2 = tick;
            Some(e.1)
        }

        fn insert(&mut self, key: u64, work: u64, tick: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                (e.1, e.2) = (work, tick);
                return;
            }
            if self.entries.len() >= self.capacity {
                let score = |e: &(u64, u64, u64)| u128::from(e.1) * (u128::from(e.2) + 1);
                // `min_by_key` returns the first of several equal minima.
                let victim = (0..self.entries.len()).min_by_key(|&i| score(&self.entries[i]));
                self.entries
                    .swap_remove(victim.expect("capacity is not zero"));
            }
            self.entries.push((key, work, tick));
        }
    }

    /// Drive `cache` and `model` through the same seeded mixed stream,
    /// comparing every answer and, after every step, the survivor set.
    fn churn(cache: &mut PlanCache, model: &mut Model, rng: &mut SplitMix64) {
        const KEYS: u64 = 24;
        // Entries an earlier `clear` dropped without evicting them.
        let s = cache.stats();
        let flushed = s.insertions - s.evictions - s.len as u64;
        for step in 0..10_000 {
            // A slow clock and tiny works make score ties common.
            let (key, tick) = (rng.next_u64() % KEYS, step / 4);
            if rng.next_u64().is_multiple_of(2) {
                let work = 1 + rng.next_u64() % 4;
                cache.insert(key, resp("v", work as f64), work, tick);
                model.insert(key, work, tick);
            } else {
                let got = cache.lookup(key, tick).map(|r| r.cost);
                let want = model.lookup(key, tick).map(|w| w as f64);
                assert_eq!(got, want, "step {step}: lookup {key}");
            }
            let s = cache.stats();
            assert_eq!(
                s.insertions - s.evictions,
                s.len as u64 + flushed,
                "step {step}"
            );
            assert_eq!(s.len, model.entries.len(), "step {step}");
            // Probe a copy, so looking does not touch recency or counters.
            let mut probe = cache.clone();
            for k in 0..KEYS {
                let alive = model.entries.iter().any(|e| e.0 == k);
                assert_eq!(probe.lookup(k, 0).is_some(), alive, "step {step}: key {k}");
            }
        }
    }

    #[test]
    fn seeded_churn_matches_the_documented_eviction_rule() {
        let mut cache = PlanCache::new(8);
        let mut model = Model {
            capacity: 8,
            entries: Vec::new(),
        };
        let mut rng = SplitMix64::new(0xC4C4E);
        churn(&mut cache, &mut model, &mut rng);
        let before = cache.stats();
        assert!(before.evictions > 100 && before.hits > 100 && before.misses > 100);

        cache.clear();
        model.entries.clear();
        assert_eq!(
            cache.stats(),
            CacheStats { len: 0, ..before },
            "clear keeps every counter"
        );
        // Every old key misses (the per-step survivor probe checks it),
        // then the cache fills and evicts again as the model says.
        churn(&mut cache, &mut model, &mut rng);
        assert!(cache.stats().evictions > before.evictions);
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
}
