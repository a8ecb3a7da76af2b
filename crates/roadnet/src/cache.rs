//! The LRU cache in front of the distance oracle.
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
//! [`LruCache`] is a generic order-tracking map (hash map plus an intrusive
//! doubly-linked list over slot indices). [`crate::CachedOracle`] keeps one,
//! for distances only, and counts its hits and misses in its
//! [`crate::OracleStats`].

use std::collections::HashMap;

/// A fixed-capacity least-recently-used cache.
///
/// Entries are stored in a slab of slots threaded onto an intrusive doubly
/// linked list; the hash map points keys at slots. All operations are
/// `O(1)` expected.
#[derive(Debug, Clone)]
pub struct LruCache<V> {
    map: HashMap<u64, usize>,
    slots: Vec<Slot<V>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries. A zero capacity
    /// cache never stores anything (every lookup is a miss).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        let slot = *self.map.get(&key)?;
        self.touch(slot);
        Some(&self.slots[slot].value)
    }

    /// Looks up `key` without updating recency.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|&slot| &self.slots[slot].value)
    }

    /// Inserts or replaces `key`, evicting the least-recently-used entry when
    /// at capacity.
    pub fn put(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.touch(slot);
            return;
        }
        if self.map.len() >= self.capacity {
            // Evict tail, reuse its slot.
            let victim = self.tail;
            let old_key = self.slots[victim].key;
            self.detach(victim);
            self.map.remove(&old_key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            self.attach_front(victim);
            self.map.insert(key, victim);
        } else {
            let slot = self.slots.len();
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.attach_front(slot);
            self.map.insert(key, slot);
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.detach(slot);
        self.attach_front(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Keys from most to least recently used (diagnostics/tests only).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slots[cur].key);
            cur = self.slots[cur].next;
        }
        out
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
}
