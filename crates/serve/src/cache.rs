//! Fixed-capacity LRU response cache.
//!
//! Serving traffic is heavily skewed — a small set of active users issues
//! most queries — so a small `(user, k) → top-K` cache absorbs a large
//! fraction of the scoring work. Implemented as a hash map into a slab of
//! doubly-linked entries (indices, not pointers): `O(1)` get/insert, no
//! unsafe, no allocation churn after warm-up.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with fixed capacity.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry, `NIL` when empty.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LruCache capacity must be positive");
        Self {
            capacity,
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops every cached entry while keeping the hit/miss counters and
    /// the slab allocation (the next warm-up refills the same capacity
    /// without reallocating). Invalidation must not zero observability:
    /// callers that flush — e.g. installing a seen-filter — still want
    /// lifetime hit rates.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(at) => {
                self.hits += 1;
                self.move_to_front(at);
                Some(&self.slab[at].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&at) = self.map.get(&key) {
            self.slab[at].value = value;
            self.move_to_front(at);
            return;
        }
        let at = if self.map.len() == self.capacity {
            // Reuse the LRU slot.
            let at = self.tail;
            self.detach(at);
            let evicted = std::mem::replace(&mut self.slab[at].key, key.clone());
            self.map.remove(&evicted);
            self.slab[at].value = value;
            at
        } else {
            self.slab.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, at);
        self.attach_front(at);
    }

    fn detach(&mut self, at: usize) {
        let (prev, next) = (self.slab[at].prev, self.slab[at].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
        self.slab[at].prev = NIL;
        self.slab[at].next = NIL;
    }

    fn attach_front(&mut self, at: usize) {
        self.slab[at].prev = NIL;
        self.slab[at].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = at;
        }
        self.head = at;
        if self.tail == NIL {
            self.tail = at;
        }
    }

    fn move_to_front(&mut self, at: usize) {
        if self.head != at {
            self.detach(at);
            self.attach_front(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_returns_inserted_values() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"missing"), None);
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.get(&"a"); // refresh a; b becomes LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "b should have been evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10); // refresh + replace
        c.insert("c", 3); // evicts b
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(1u32, "x");
        c.insert(2u32, "y");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(&"y"));
    }

    #[test]
    fn heavy_churn_keeps_structure_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(i % 13, i);
            let _ = c.get(&(i % 7));
            assert!(c.len() <= 8);
        }
        // The 8 most recently touched keys are retrievable.
        let mut present = 0;
        for k in 0..13u32 {
            if c.get(&k).is_some() {
                present += 1;
            }
        }
        assert_eq!(present, 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u32, ()>::new(0);
    }

    #[test]
    fn clear_keeps_counters_and_capacity() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"zzz"), None);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity, 2);
        assert_eq!(c.stats(), (1, 1), "clear must not reset the counters");
        assert_eq!(c.get(&"a"), None, "entries are gone");
        // The cache keeps working after a clear (fresh slab links).
        c.insert("c", 3);
        c.insert("d", 4);
        c.insert("e", 5); // evicts c
        assert_eq!(c.get(&"c"), None);
        assert_eq!(c.get(&"d"), Some(&4));
        assert_eq!(c.get(&"e"), Some(&5));
    }
}
