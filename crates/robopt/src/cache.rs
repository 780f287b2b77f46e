//! Plan-signature memoization (DESIGN §10).
//!
//! [`PlanCache`] maps [`crate::api::OptimizeRequest::signature`] keys to
//! finished [`OptimizeResponse`]s in one [`KeyMap`], the open-addressing
//! table Def-2 pruning probes too: a lookup is one probe, and an eviction
//! is one [`KeyMap::remove`]. A capacity of 0 is caching off: every lookup
//! misses and counts, nothing is stored, counted or allocated.
//!
//! # Eviction and admission
//!
//! Every lookup, hit or miss, adds one to its key's request count `f`. A
//! cached key's count lives in its slot, so a hit stays one probe; every
//! other key's lives in a second [`KeyMap`], so a count survives its
//! entry's eviction and a popular cheap plan builds credit while it is
//! out. When the cache is full, the entry with the smallest **benefit
//! score** is the would-be victim:
//!
//! ```text
//! score(e) = work(e) × f(e)
//! ```
//!
//! where `work` is the enumeration's `generated` counter — a deterministic
//! proxy for the cost a hit saves. A missed response enters only if its key
//! has been requested at least as often as the victim's (TinyLFU's
//! admission rule, Einziger et al., ACM TOS 2017, with ties admitted);
//! otherwise the cache is left as it was, so a one-off request neither
//! evicts a plan requested more often nor has its response built for the
//! cache ([`PlanCache::insert_with`]). Ties admit so that a stream of
//! distinct cold keys still cycles through a full cache; comparing scores
//! instead would keep out every cold key cheaper than the cheapest entry.
//!
//! **Aging.** The `tick` both calls take is the facade's logical request
//! counter. Each time it passes a multiple of the window `W` =
//! 32 × capacity, every count halves (once per window passed) and the
//! zeros leave the table, so old popularity fades. The window is long
//! enough that an entry requested at a full cache's mean rate, once in
//! `capacity` requests, counts about 32 per window (Poisson noise
//! 1/√32 ≈ 18 %). A halving leaves the counts summing to at most `W`, so at
//! most `W` uncached keys survive it and at most `W` new ones arrive
//! before the next: the table holds at most 2·`W` keys, and at most `W`
//! on a stream that never repeats a key.
//!
//! Wall-clock time never enters the score, so eviction order is a pure
//! function of the request stream (ties break toward the lowest entry
//! position of the map, the oldest insertion still alive until a removal
//! moves the last entry into a hole).

use robopt_plan::index::KeyMap;

use crate::api::OptimizeResponse;

/// Ticks per aging window, per entry of capacity (see the module docs).
const WINDOW_PER_ENTRY: u64 = 32;

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

/// One cached response and what its eviction score reads.
#[derive(Debug, Clone)]
struct Slot {
    value: OptimizeResponse,
    /// Deterministic recompute-cost proxy (enumeration `generated`).
    work: u64,
    /// The key's request count, as aged.
    count: u64,
}

/// What a cache of nonzero capacity holds.
#[derive(Debug, Clone)]
struct Store {
    slots: KeyMap<Slot>,
    /// Request counts of keys not in `slots`; never a zero.
    counts: KeyMap<u64>,
    /// Ticks per aging window.
    window: u64,
    /// The tick of the next halving: the first multiple of `window` the
    /// clock has not reached.
    next_halving: u64,
}

impl Store {
    /// Halve every count once per window that `tick` has passed since the
    /// last halving, and drop the uncached keys that reach zero; a cached
    /// entry stays at any count.
    #[inline]
    fn age(&mut self, tick: u64) {
        if tick >= self.next_halving {
            self.halve(tick);
        }
    }

    fn halve(&mut self, tick: u64) {
        let shift = (1 + (tick - self.next_halving) / self.window).min(63);
        let next = tick / self.window + 1;
        self.next_halving = next.saturating_mul(self.window);
        self.slots.retain(|_, slot| {
            slot.count >>= shift;
            true
        });
        self.counts.retain(|_, count| {
            *count >>= shift;
            *count > 0
        });
    }

    /// The minimum-score entry's key and request count (ties → lowest
    /// entry position: `min_by_key` keeps the first of equal minima).
    fn victim(&self) -> Option<(u64, u64)> {
        let score = |slot: &Slot| u128::from(slot.work) * u128::from(slot.count);
        let (key, slot) = self.slots.iter().min_by_key(|(_, slot)| score(slot))?;
        Some((key, slot.count))
    }
}

/// Deterministic plan-signature → response cache. See the module docs.
#[derive(Debug, Clone)]
pub struct PlanCache {
    /// `None` at capacity 0.
    store: Option<Store>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl PlanCache {
    /// Default entry capacity for the service facade.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A cache holding at most `capacity` responses. `0` is caching off:
    /// every lookup misses, inserts are dropped, the counters still count.
    ///
    /// Room for up to [`PlanCache::DEFAULT_CAPACITY`] entries is reserved
    /// here, so a cache filling up does not regrow its entries through
    /// every doubling; a larger one grows past that on demand.
    pub fn new(capacity: usize) -> Self {
        let store = (capacity > 0).then(|| {
            let window = WINDOW_PER_ENTRY.saturating_mul(capacity as u64);
            Store {
                slots: KeyMap::with_capacity(capacity.min(Self::DEFAULT_CAPACITY)),
                counts: KeyMap::new(),
                window,
                next_halving: window,
            }
        });
        PlanCache {
            store,
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
        self.store.as_ref().map_or(0, |store| store.slots.len())
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Drop every entry and request count (model swap, explicit flush);
    /// the counters survive so telemetry spans flushes.
    pub fn clear(&mut self) {
        if let Some(store) = &mut self.store {
            store.slots.clear();
            store.counts.clear();
        }
    }

    /// Look up `key` at `tick`, counting the request toward its score.
    pub fn lookup(&mut self, key: u64, tick: u64) -> Option<OptimizeResponse> {
        let Some(store) = &mut self.store else {
            self.misses += 1;
            return None;
        };
        store.age(tick);
        if let Some(slot) = store.slots.get_mut(key) {
            self.hits += 1;
            slot.count += 1;
            return Some(slot.value.clone());
        }
        self.misses += 1;
        match store.counts.get_mut(key) {
            Some(count) => *count += 1,
            None => store.counts.insert(key, 1),
        }
        None
    }

    /// Insert (or refresh) `key → value`: [`PlanCache::insert_with`] with
    /// the value already built, kept for the repo benchmark's tracer.
    pub fn insert(&mut self, key: u64, value: OptimizeResponse, work: u64, tick: u64) {
        self.insert_with(key, work, tick, || value);
    }

    /// Insert (or refresh) the response `value` builds under `key`. `work`
    /// is the deterministic recompute-cost proxy; `tick` is the aging
    /// clock. A full cache admits a new key only if it has been requested
    /// at least as often as the minimum-score entry, which it then evicts;
    /// `value` is called only when the response is stored.
    pub fn insert_with(
        &mut self,
        key: u64,
        work: u64,
        tick: u64,
        value: impl FnOnce() -> OptimizeResponse,
    ) {
        let Some(store) = &mut self.store else {
            return;
        };
        store.age(tick);
        if let Some(held) = store.slots.get_mut(key) {
            held.value = value();
            held.work = work;
            return;
        }
        let count = store.counts.get(key).unwrap_or(0);
        if store.slots.len() >= self.capacity {
            let Some((victim, victim_count)) = store.victim() else {
                return;
            };
            if count < victim_count {
                return;
            }
            store.slots.remove(victim);
            if victim_count > 0 {
                store.counts.insert(victim, victim_count);
            }
            self.evictions += 1;
        }
        if count > 0 {
            store.counts.remove(key);
        }
        let slot = Slot {
            value: value(),
            work,
            count,
        };
        store.slots.insert(key, slot);
        self.insertions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_core::EnumStats;
    use robopt_plan::rng::SplitMix64;
    use std::collections::BTreeMap;

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
        // Keys equal in their low 32 bits, which the table's own model
        // test mixes in too.
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

    /// The documented rule on plain collections: entries `(key, work,
    /// count)` in a vector, uncached counts in a `BTreeMap`, every count
    /// halved per window passed. The victim is the minimum `work × count`,
    /// ties to the lowest index, removed by `swap_remove`; a missed key
    /// enters if its count is at least the victim's.
    struct Model {
        capacity: usize,
        window: u64,
        epoch: u64,
        entries: Entries,
        counts: BTreeMap<u64, u64>,
    }

    /// `(key, work, count)` per entry, in entry order.
    type Entries = Vec<(u64, u64, u64)>;

    impl Model {
        fn new(capacity: usize) -> Model {
            Model {
                capacity,
                window: WINDOW_PER_ENTRY * capacity as u64,
                epoch: 0,
                entries: Vec::new(),
                counts: BTreeMap::new(),
            }
        }

        fn age(&mut self, tick: u64) {
            let epoch = tick / self.window;
            if epoch > self.epoch {
                let shift = (epoch - self.epoch).min(63);
                self.epoch = epoch;
                for e in &mut self.entries {
                    e.2 >>= shift;
                }
                self.counts.retain(|_, count| {
                    *count >>= shift;
                    *count > 0
                });
            }
        }

        fn lookup(&mut self, key: u64, tick: u64) -> Option<u64> {
            self.age(tick);
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                e.2 += 1;
                return Some(e.1);
            }
            *self.counts.entry(key).or_insert(0) += 1;
            None
        }

        fn insert(&mut self, key: u64, work: u64, tick: u64) {
            self.age(tick);
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                e.1 = work;
                return;
            }
            let count = self.counts.get(&key).copied().unwrap_or(0);
            if self.entries.len() >= self.capacity {
                let score = |e: &(u64, u64, u64)| u128::from(e.1) * u128::from(e.2);
                // `min_by_key` returns the first of several equal minima.
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| score(&self.entries[i]))
                    .expect("capacity is not zero");
                if count < self.entries[victim].2 {
                    return;
                }
                let (gone, _, gone_count) = self.entries.swap_remove(victim);
                if gone_count > 0 {
                    self.counts.insert(gone, gone_count);
                }
            }
            self.counts.remove(&key);
            self.entries.push((key, work, count));
        }
    }

    /// The entries and the uncached counts.
    fn contents(cache: &PlanCache) -> (Entries, BTreeMap<u64, u64>) {
        let store = cache.store.as_ref().expect("capacity is not zero");
        let slots = store.slots.iter();
        let entries = slots.map(|(key, s)| (key, s.work, s.count)).collect();
        let counts = store.counts.iter().map(|(key, &c)| (key, c)).collect();
        (entries, counts)
    }

    /// Drive `cache` and `model` through the same seeded mixed stream,
    /// comparing every answer and, after every step, the survivor set,
    /// every entry's work and count, and the uncached counts.
    fn churn(cache: &mut PlanCache, model: &mut Model, rng: &mut SplitMix64) {
        const KEYS: u64 = 24;
        // Entries an earlier `clear` dropped without evicting them.
        let s = cache.stats();
        let flushed = s.insertions - s.evictions - s.len as u64;
        for step in 0..10_000 {
            // A slow clock and tiny works make score ties common; the
            // window (32 × 8 ticks) passes about ten times.
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
            assert_eq!(
                contents(cache),
                (model.entries.clone(), model.counts.clone()),
                "step {step}"
            );
            // Probe a copy, so looking does not touch counts or counters.
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
        let mut model = Model::new(8);
        let mut rng = SplitMix64::new(0xC4C4E);
        churn(&mut cache, &mut model, &mut rng);
        let before = cache.stats();
        assert!(before.evictions > 100 && before.hits > 100 && before.misses > 100);

        cache.clear();
        model.entries.clear();
        model.counts.clear();
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

    /// One facade request: a lookup, and on a miss an insert at the same
    /// tick. Whether it hit.
    fn request(cache: &mut PlanCache, key: u64, work: u64, tick: u64) -> bool {
        let hit = cache.lookup(key, tick).is_some();
        if !hit {
            cache.insert(key, resp("v", work as f64), work, tick);
        }
        hit
    }

    /// Whether `key` is cached, asked of a copy.
    fn holds(cache: &PlanCache, key: u64) -> bool {
        cache.clone().lookup(key, 0).is_some()
    }

    #[test]
    fn eviction_removes_minimum_benefit_and_counts_it() {
        let mut cache = PlanCache::new(2);
        // work × count: a → 100×2, b → 10×3 (minimum).
        let mut tick = 0;
        for (key, work, times) in [(1, 100, 2), (2, 10, 3)] {
            for _ in 0..times {
                tick += 1;
                request(&mut cache, key, work, tick);
            }
        }
        // c's first two misses count less than b's three requests; the
        // third ties them and enters in b's place.
        for expect_evictions in [0, 0, 1] {
            tick += 1;
            assert!(!request(&mut cache, 3, 50, tick));
            assert_eq!(cache.stats().evictions, expect_evictions);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().insertions, 3);
        assert!(!holds(&cache, 2), "b had the lowest score");
        assert!(holds(&cache, 1) && holds(&cache, 3));
    }

    #[test]
    fn a_hit_counts_toward_the_score_and_saves_the_entry() {
        let mut cache = PlanCache::new(2);
        request(&mut cache, 1, 10, 1);
        request(&mut cache, 2, 10, 2);
        // Hits raise a's count: its score now dwarfs b's at equal work.
        for tick in 3..8 {
            assert!(request(&mut cache, 1, 10, tick));
        }
        assert!(!request(&mut cache, 3, 10, 8));
        assert!(holds(&cache, 1), "the requested entry survives");
        assert!(!holds(&cache, 2), "the idle entry is evicted");
    }

    #[test]
    fn a_one_off_dear_entry_does_not_outlive_a_popular_cheap_key() {
        let mut cache = PlanCache::new(2);
        // d costs ten times what a does and is asked for once; a is asked
        // for eleven times.
        request(&mut cache, 1, 100, 1);
        for tick in 2..=12 {
            request(&mut cache, 2, 10, tick);
        }
        // Another cheap key comes in: d (100 × 1) goes, not a (10 × 11).
        // A score of work × (last tick + 1) kept d (100 × 2) and evicted a
        // (10 × 13).
        request(&mut cache, 3, 10, 13);
        assert!(holds(&cache, 2), "the popular cheap key survives");
        assert!(!holds(&cache, 1), "the one-off dear key is evicted");
        assert!(holds(&cache, 3));
    }

    #[test]
    fn admission_keeps_out_a_one_off_miss() {
        let mut cache = PlanCache::new(2);
        for tick in 1..=6 {
            request(&mut cache, 1 + tick % 2, 10, tick);
        }
        // A far dearer key asked for once is not built for the cache and
        // displaces nothing; its count waits in the table.
        assert!(cache.lookup(3, 7).is_none());
        cache.insert_with(3, 1_000, 7, || panic!("a refused response is never built"));
        let s = cache.stats();
        assert_eq!((s.len, s.insertions, s.evictions), (2, 2, 0));
        assert!(holds(&cache, 1) && holds(&cache, 2));
        assert_eq!(contents(&cache).1, BTreeMap::from([(3, 1)]));
        // Asked for as often as the victim, it enters.
        assert!(!request(&mut cache, 3, 1_000, 8));
        assert!(!request(&mut cache, 3, 1_000, 9));
        assert!(holds(&cache, 3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn halving_keeps_the_count_table_under_its_bound() {
        // An all-distinct stream of 100 × capacity keys: without aging the
        // table would hold every key it has seen.
        let capacity = 16;
        let window = (WINDOW_PER_ENTRY * capacity as u64) as usize;
        let mut cache = PlanCache::new(capacity);
        let mut peak = 0;
        for key in 0..100 * capacity as u64 {
            request(&mut cache, key, 1 + key % 7, key + 1);
            let counted = cache.store.as_ref().map_or(0, |s| s.counts.len());
            peak = peak.max(counted);
        }
        assert!(peak <= window, "peak {peak} over the window {window}");
        assert!(peak >= window / 2, "peak {peak}: the table never filled");
        assert_eq!(cache.len(), capacity);
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

    /// A seeded stream of lookups and inserts over keys equal in their low
    /// bits, at four capacities, digesting each lookup's hit and cost bits
    /// and the counters after each insert. Re-pinned when the score became
    /// work × aged request count, with admission; it read
    /// `0x3172_a567_50f0_543d` under work × (last tick + 1).
    #[test]
    fn a_seeded_stream_is_pinned() {
        let mut digest = robopt_vector::SigHasher::new();
        for capacity in [0usize, 1, 4, 256] {
            let mut cache = PlanCache::new(capacity);
            let mut rng = SplitMix64::new(0xCAC4_E5EE_D000 + capacity as u64);
            // A domain past the capacity, so full caches evict.
            let domain = 3 * capacity as u64 + 8;
            for step in 0..6_000u64 {
                let raw = rng.next_u64() % domain;
                let key = if raw.is_multiple_of(2) {
                    raw << 40
                } else {
                    raw
                };
                // A slow clock and small works make score ties common.
                let tick = step / 3;
                if rng.next_u64().is_multiple_of(3) {
                    let work = 1 + rng.next_u64() % 8;
                    let cost = rng.next_f64() * 1e3;
                    cache.insert(key, resp("v", cost), work, tick);
                    let s = cache.stats();
                    for count in [s.hits, s.misses, s.evictions, s.insertions] {
                        digest.write_u64(count);
                    }
                    digest.write_u64(s.len as u64);
                    digest.write_u64(s.capacity as u64);
                } else {
                    match cache.lookup(key, tick) {
                        Some(hit) => {
                            digest.write_u64(1);
                            digest.write_f64_bits(hit.cost);
                        }
                        None => digest.write_u64(0),
                    }
                }
            }
            let s = cache.stats();
            assert_eq!(s.capacity, capacity);
            if capacity > 0 {
                assert!(s.hits > 100 && s.evictions > 100, "{capacity}: {s:?}");
            }
        }
        assert_eq!(digest.finish(), 0xe217_62ce_c1c3_07b7);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = PlanCache::new(0);
        cache.insert(1, resp("a", 1.0), 1, 1);
        cache.insert_with(2, 1, 2, || panic!("caching off builds nothing"));
        assert!(cache.lookup(1, 2).is_none());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 1);
        // No table of entries or counts exists to count into.
        assert!(cache.store.is_none());
    }
}
