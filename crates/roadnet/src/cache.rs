//! The distance cache in front of the oracle.
//!
//! The paper observes that "the shortest path algorithm is called very
//! frequently and can be the bottleneck if not implemented efficiently. We
//! observe the repeated calling follows a pattern that preserves locality.
//! So, we implement two LRU caches using a single hash table, one storing up
//! to ten million shortest distances and the other storing up to ten
//! thousand shortest paths... Both caches are indexed only by the starting
//! and destination points... by defining the index for two vertices s and e
//! as i = id(s) · |V| + id(e)."
//!
//! [`LruCache`] keeps the paper's index but not its hash table: it is one
//! flat set-associative array, LRU within each set. A key picks its set by a
//! multiplicative hash, and the set's four `(key, distance)` ways fill one
//! 64-byte cache line, so a lookup reads one line and an insertion writes
//! it; there is no map, list or rehash. [`crate::CachedOracle`] keeps one,
//! for distances only, and counts its hits and misses in its
//! [`crate::OracleStats`].

use std::ops::Range;

/// Ways per set: four 16-byte `(key, distance)` ways are one cache line.
const WAYS: usize = 4;

/// 2⁶⁴ divided by the golden ratio: multiplying by it spreads the paper's
/// key, whose low bits follow `id(e)`, over the high bits the set is read
/// from.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed-capacity cache, least recently used first out within each set.
///
/// `capacity / 4` sets of four ways; a capacity below four is one set of
/// `capacity` ways, and zero stores nothing. A hit moves its way to the
/// front of the set, and a miss shifts the set right, dropping its last
/// (least recently used) way. Every operation touches one set.
#[derive(Debug, Clone)]
pub struct LruCache<V> {
    /// `(key + 1, value)` ways, set after set from `base`; a zero key word
    /// marks an empty way, and a set's filled ways come first.
    ways: Vec<(u64, V)>,
    /// First way of set 0: the first that starts a cache line.
    base: usize,
    sets: usize,
    set_ways: usize,
    capacity: usize,
}

impl<V: Clone + Default> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries. A zero capacity
    /// cache never stores anything (every lookup is a miss).
    pub fn new(capacity: usize) -> Self {
        let set_ways = capacity.min(WAYS);
        let sets = (capacity / WAYS).max(1);
        // All-zero ways are allocated zeroed, so capacity nobody fills
        // costs no resident memory; `WAYS - 1` spare ways let set 0 start
        // on a cache line (or anywhere in bounds when no way does).
        let ways = vec![(0, V::default()); sets * set_ways + WAYS - 1];
        LruCache {
            base: ways.as_ptr().align_offset(64) % WAYS,
            ways,
            sets,
            set_ways,
            capacity,
        }
    }

    /// Number of entries currently stored (counts every way).
    pub fn len(&self) -> usize {
        self.ways.iter().filter(|w| w.0 != 0).count()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let tag = key.checked_add(1)?;
        let ways = self.set(key);
        let set = &mut self.ways[ways];
        let i = set.iter().position(|w| w.0 == tag)?;
        set[..=i].rotate_right(1);
        Some(&set[0].1)
    }

    /// Looks up `key` without updating recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let tag = key.checked_add(1)?;
        let set = &self.ways[self.set(key)];
        set.iter().find(|w| w.0 == tag).map(|w| &w.1)
    }

    /// Inserts or replaces `key` at the front of its set, evicting the
    /// set's least-recently-used entry when the set is full. `u64::MAX` is
    /// never stored.
    pub fn put(&mut self, key: u64, value: V) {
        let (tag, ways) = (key.checked_add(1), self.set(key));
        let set = &mut self.ways[ways];
        if let (Some(tag), Some(last)) = (tag, set.len().checked_sub(1)) {
            // A stored key moves to the front; a new one drops the last way.
            let i = set.iter().position(|w| w.0 == tag).unwrap_or(last);
            set[..=i].rotate_right(1);
            set[0] = (tag, value);
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.ways.iter_mut().for_each(|w| w.0 = 0);
    }

    /// Keys set by set, each set's from most to least recently used
    /// (diagnostics/tests only).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let filled = self.ways[self.base..].iter().filter(|w| w.0 != 0);
        filled.map(|w| w.0 - 1).collect()
    }

    /// The ways of `key`'s set: the high bits of the hashed key scaled
    /// onto the sets (multiply-shift), so any set count works.
    fn set(&self, key: u64) -> Range<usize> {
        let hash = key.wrapping_mul(HASH);
        let set = ((u128::from(hash) * self.sets as u128) >> 64) as usize;
        let start = self.base + set * self.set_ways;
        start..start + self.set_ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut c = LruCache::new(4);
        c.put(1, "a");
        c.put(2, "b");
        assert_eq!(c.get(1), Some(&"a"));
        assert_eq!(c.get(3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = LruCache::new(3);
        c.put(1, 1);
        c.put(2, 2);
        c.put(3, 3);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(1).is_some());
        c.put(4, 4);
        assert_eq!(c.peek(2), None, "2 should have been evicted");
        assert!(c.peek(1).is_some());
        assert!(c.peek(3).is_some());
        assert!(c.peek(4).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn replacing_existing_key_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.put(1, "a");
        c.put(2, "b");
        c.put(1, "a2");
        c.put(3, "c"); // evicts 2, not 1
        assert_eq!(c.peek(1), Some(&"a2"));
        assert_eq!(c.peek(2), None);
        assert_eq!(c.keys_by_recency(), vec![3, 1]);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.put(1, 1);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut c = LruCache::new(2);
        c.put(1, 1);
        c.put(2, 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        assert_eq!(c.keys_by_recency(), Vec::<u64>::new());
        c.put(3, 3);
        assert_eq!(c.get(3), Some(&3));
    }

    #[test]
    fn lru_never_exceeds_capacity_under_churn() {
        let mut c = LruCache::new(16);
        for i in 0..10_000u64 {
            c.put(i % 97, i);
            assert!(c.len() <= 16);
        }
    }

    #[test]
    fn a_set_of_distances_is_one_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<[(u64, f64); WAYS]>(), 64);
        let c = LruCache::<f64>::new(1_000);
        assert_eq!(c.sets, 250);
        assert_eq!(c.ways[c.base..].as_ptr() as usize % 64, 0);
    }

    #[test]
    fn a_full_set_evicts_its_own_least_recently_used_key() {
        let mut c = LruCache::new(64);
        let s = c.set(0).start;
        let (same, other): (Vec<u64>, Vec<u64>) = (1..2_000).partition(|&k| c.set(k).start == s);
        for &k in other[..40].iter().chain(&same[..4]) {
            c.put(k, k);
        }
        let outside = |c: &LruCache<u64>| [&c.ways[..s], &c.ways[s + WAYS..]].concat();
        let before = outside(&c);
        assert_eq!(c.get(same[0]), Some(&same[0])); // same[1] is now the set's LRU
        c.put(same[4], same[4]);
        let set: Vec<u64> = c.ways[s..s + WAYS].iter().map(|w| w.0 - 1).collect();
        assert_eq!(set, [same[4], same[0], same[3], same[2]]);
        assert_eq!(outside(&c), before, "other sets are untouched");
    }

    #[test]
    fn capacities_off_the_set_size_still_store_and_stay_within_capacity() {
        for cap in [1, 2, 3, 10, 23] {
            let mut c = LruCache::new(cap);
            for i in 0..2_000u64 {
                c.put(i * 7 % 101, i);
                assert_eq!(c.peek(i * 7 % 101), Some(&i), "cap {cap}");
                assert!(c.len() <= cap, "cap {cap}");
            }
        }
    }
}
