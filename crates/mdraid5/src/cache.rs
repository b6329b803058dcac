//! The stripe cache: md's mechanism for avoiding parity-update reads.

use std::collections::HashMap;

/// An LRU cache of stripe contents, keyed by stripe index.
///
/// Each entry holds the data chunks and parity of one stripe (present
/// entries only — a chunk may be absent if it was never read or written
/// while cached). When a partial-stripe write hits a fully present entry,
/// the volume can recompute parity without touching the devices, exactly
/// like md's `stripe_cache_size` pages.
#[derive(Debug)]
pub struct StripeCache {
    /// stripe -> per-slot data; slot `0..n-1` = data chunks, slot `n-1` =
    /// parity. `None` = unknown.
    entries: HashMap<u64, CacheEntry>,
    capacity: usize,
    tick: u64,
    chunk_bytes: usize,
    slots: usize,
}

#[derive(Debug)]
struct CacheEntry {
    slots: Vec<Option<Box<[u8]>>>,
    last_use: u64,
}

impl StripeCache {
    /// Creates a cache holding at most `capacity` stripes of `slots` chunks
    /// (`n-1` data + 1 parity) of `chunk_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(capacity: usize, slots: usize, chunk_bytes: usize) -> Self {
        assert!(capacity > 0, "stripe cache capacity must be nonzero");
        assert!(slots >= 2, "a stripe has at least one data chunk + parity");
        assert!(chunk_bytes > 0, "chunk_bytes must be nonzero");
        StripeCache {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            chunk_bytes,
            slots,
        }
    }

    /// Builds a cache sized to `bytes` total (md's `stripe_cache_size` is
    /// configured in pages; the paper uses the 128 MiB maximum).
    pub fn with_byte_budget(bytes: u64, slots: usize, chunk_bytes: usize) -> Self {
        let per_stripe = (slots * chunk_bytes) as u64;
        let capacity = (bytes / per_stripe).max(1) as usize;
        Self::new(capacity, slots, chunk_bytes)
    }

    /// Number of stripes currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one chunk (`slot`) of `stripe`, refreshing LRU recency.
    pub fn get(&mut self, stripe: u64, slot: usize) -> Option<&[u8]> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&stripe)?;
        e.last_use = tick;
        e.slots[slot].as_deref()
    }

    /// Inserts one chunk of `stripe`, evicting the LRU stripe if needed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `chunk_bytes` long or `slot` is out
    /// of range.
    pub fn put(&mut self, stripe: u64, slot: usize, data: &[u8]) {
        assert_eq!(data.len(), self.chunk_bytes, "chunk size mismatch");
        assert!(slot < self.slots, "slot out of range");
        self.tick += 1;
        let tick = self.tick;
        if !self.entries.contains_key(&stripe) && self.entries.len() >= self.capacity {
            // Evict the least recently used stripe.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_use) {
                self.entries.remove(&victim);
            }
        }
        let slots = self.slots;
        let entry = self.entries.entry(stripe).or_insert_with(|| CacheEntry {
            slots: (0..slots).map(|_| None).collect(),
            last_use: tick,
        });
        entry.last_use = tick;
        match &mut entry.slots[slot] {
            Some(existing) => existing.copy_from_slice(data),
            none => *none = Some(data.to_vec().into_boxed_slice()),
        }
    }

    /// Patches a byte range of an already-cached chunk in place. Does
    /// nothing when the chunk is absent (a partially known chunk cannot be
    /// cached).
    ///
    /// # Panics
    ///
    /// Panics if the patch range exceeds the chunk.
    pub fn patch(&mut self, stripe: u64, slot: usize, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.chunk_bytes,
            "patch range exceeds chunk"
        );
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&stripe) {
            e.last_use = tick;
            if let Some(chunk) = &mut e.slots[slot] {
                chunk[offset..offset + data.len()].copy_from_slice(data);
            }
        }
    }

    /// Drops every cached stripe.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut c = StripeCache::new(4, 3, 8);
        c.put(7, 1, &[1u8; 8]);
        assert_eq!(c.get(7, 1), Some(&[1u8; 8][..]));
        assert_eq!(c.get(7, 0), None);
        assert_eq!(c.get(8, 1), None);
    }

    #[test]
    fn lru_eviction() {
        let mut c = StripeCache::new(2, 2, 4);
        c.put(1, 0, &[1u8; 4]);
        c.put(2, 0, &[2u8; 4]);
        c.get(1, 0); // refresh 1
        c.put(3, 0, &[3u8; 4]); // evicts 2
        assert!(c.get(2, 0).is_none());
        assert!(c.get(1, 0).is_some());
        assert!(c.get(3, 0).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut c = StripeCache::new(2, 2, 4);
        c.put(1, 0, &[1u8; 4]);
        c.put(1, 0, &[9u8; 4]);
        assert_eq!(c.get(1, 0), Some(&[9u8; 4][..]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn byte_budget_sizing() {
        let c = StripeCache::with_byte_budget(1024, 4, 64);
        assert_eq!(c.capacity, 4);
        // Tiny budgets still hold one stripe.
        let c = StripeCache::with_byte_budget(1, 4, 64);
        assert_eq!(c.capacity, 1);
    }

    #[test]
    #[should_panic(expected = "chunk size mismatch")]
    fn wrong_chunk_size_rejected() {
        StripeCache::new(2, 2, 4).put(0, 0, &[0u8; 5]);
    }
}
