//! The on-chip LRS-metadata cache (paper Section 3.3).
//!
//! A small set-associative cache in the memory controller holds active
//! metadata lines. Each tag carries a *Sharer* count: the number of write
//! queue entries whose latency determination still needs this line. Lines
//! with sharers can never be evicted; when a conflict set is fully shared,
//! the incoming request spills, and the memory controller retries it when
//! the scheduler switches from write to read mode.

use ladder_reram::LineAddr;

/// Cache geometry and access cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataCacheConfig {
    /// Total capacity in bytes (default 64 KB).
    pub capacity_bytes: usize,
    /// Associativity (default 4).
    pub ways: usize,
    /// Access latency in controller cycles (default 2).
    pub access_cycles: u32,
    /// Spill-buffer entries (default 16).
    pub spill_entries: usize,
}

impl Default for MetadataCacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 64 * 1024,
            ways: 4,
            access_cycles: 2,
            spill_entries: 16,
        }
    }
}

/// Running statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Clean evictions.
    pub evictions_clean: u64,
    /// Dirty evictions (each costs a metadata write to memory).
    pub evictions_dirty: u64,
    /// Inserts refused because every way was shared.
    pub blocked_inserts: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups (0 when no lookups happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct TagEntry {
    addr: LineAddr,
    dirty: bool,
    sharers: u32,
    last_use: u64,
}

/// Outcome of inserting a missing metadata line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Installed into an empty or clean-victim way.
    Installed {
        /// Dirty line that had to be written back first, if any.
        writeback: Option<LineAddr>,
    },
    /// Every way in the set is pinned by sharers; caller must spill.
    Blocked,
}

/// The LRS-metadata cache.
///
/// # Examples
///
/// ```
/// use ladder_core::{InsertOutcome, MetadataCache, MetadataCacheConfig};
/// use ladder_reram::LineAddr;
///
/// let mut cache = MetadataCache::new(MetadataCacheConfig::default());
/// let a = LineAddr::new(17);
/// assert!(!cache.lookup(a));
/// assert!(matches!(cache.insert(a), InsertOutcome::Installed { writeback: None }));
/// assert!(cache.lookup(a));
/// ```
#[derive(Debug, Clone)]
pub struct MetadataCache {
    config: MetadataCacheConfig,
    sets: Vec<Vec<TagEntry>>,
    tick: u64,
    stats: CacheStats,
}

impl MetadataCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(config: MetadataCacheConfig) -> Self {
        let lines = config.capacity_bytes / ladder_reram::LINE_BYTES;
        assert!(config.ways > 0 && lines >= config.ways, "degenerate cache");
        let num_sets = lines / config.ways;
        Self {
            config,
            sets: vec![Vec::new(); num_sets],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache configuration.
    pub fn config(&self) -> &MetadataCacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.raw() % self.sets.len() as u64) as usize
    }

    /// Looks up a metadata line, recording hit/miss and refreshing LRU.
    pub fn lookup(&mut self, addr: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(addr);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.addr == addr) {
            e.last_use = tick;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Whether a line is resident, without touching statistics or LRU.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.sets[self.set_of(addr)].iter().any(|e| e.addr == addr)
    }

    /// Installs a missing line, evicting the LRU non-shared way if needed.
    ///
    /// Calling this for a line already resident is a logic error and
    /// panics; use [`MetadataCache::lookup`] first.
    pub fn insert(&mut self, addr: LineAddr) -> InsertOutcome {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.config.ways;
        let set_idx = self.set_of(addr);
        let set = &mut self.sets[set_idx];
        assert!(
            set.iter().all(|e| e.addr != addr),
            "inserting already-resident line {addr}"
        );
        if set.len() < ways {
            set.push(TagEntry {
                addr,
                dirty: false,
                sharers: 0,
                last_use: tick,
            });
            return InsertOutcome::Installed { writeback: None };
        }
        // Evict the least recently used entry with no sharers.
        let victim = set
            .iter()
            .enumerate()
            .filter(|(_, e)| e.sharers == 0)
            .min_by_key(|(_, e)| e.last_use)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(
                    &mut set[i],
                    TagEntry {
                        addr,
                        dirty: false,
                        sharers: 0,
                        last_use: tick,
                    },
                );
                if old.dirty {
                    self.stats.evictions_dirty += 1;
                    InsertOutcome::Installed {
                        writeback: Some(old.addr),
                    }
                } else {
                    self.stats.evictions_clean += 1;
                    InsertOutcome::Installed { writeback: None }
                }
            }
            None => {
                self.stats.blocked_inserts += 1;
                InsertOutcome::Blocked
            }
        }
    }

    /// Increments the Sharer count of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn add_sharer(&mut self, addr: LineAddr) {
        self.entry_mut(addr).sharers += 1;
    }

    /// Decrements the Sharer count when a dependent write retires.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident or has no sharers.
    pub fn release_sharer(&mut self, addr: LineAddr) {
        let e = self.entry_mut(addr);
        assert!(e.sharers > 0, "releasing sharer of unshared line {addr}");
        e.sharers -= 1;
    }

    /// Marks a resident line dirty (its in-memory copy is stale).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn mark_dirty(&mut self, addr: LineAddr) {
        self.entry_mut(addr).dirty = true;
    }

    /// Drains every dirty line (crash-flush / end-of-simulation), returning
    /// the addresses that need writing back.
    pub fn flush_dirty(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            for e in set.iter_mut() {
                if e.dirty {
                    e.dirty = false;
                    out.push(e.addr);
                }
            }
        }
        out
    }

    #[expect(clippy::panic, reason = "callers check residency with lookup() first")]
    fn entry_mut(&mut self, addr: LineAddr) -> &mut TagEntry {
        let set = self.set_of(addr);
        self.sets[set]
            .iter_mut()
            .find(|e| e.addr == addr)
            .unwrap_or_else(|| panic!("metadata line {addr} not resident"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> MetadataCache {
        // 4 lines, 2 ways → 2 sets.
        MetadataCache::new(MetadataCacheConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
            access_cycles: 2,
            spill_entries: 2,
        })
    }

    #[test]
    fn lru_eviction_prefers_oldest_unshared() {
        let mut c = tiny_cache();
        let a = LineAddr::new(0);
        let b = LineAddr::new(2); // same set as a (2 sets: even addrs → set 0)
        let d = LineAddr::new(4);
        assert!(matches!(
            c.insert(a),
            InsertOutcome::Installed { writeback: None }
        ));
        assert!(matches!(
            c.insert(b),
            InsertOutcome::Installed { writeback: None }
        ));
        // Touch `a` so `b` becomes LRU.
        assert!(c.lookup(a));
        c.mark_dirty(b);
        match c.insert(d) {
            InsertOutcome::Installed { writeback } => assert_eq!(writeback, Some(b)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
        assert_eq!(c.stats().evictions_dirty, 1);
    }

    #[test]
    fn fully_shared_set_blocks_insert() {
        let mut c = tiny_cache();
        let a = LineAddr::new(0);
        let b = LineAddr::new(2);
        c.insert(a);
        c.insert(b);
        c.add_sharer(a);
        c.add_sharer(b);
        assert_eq!(c.insert(LineAddr::new(4)), InsertOutcome::Blocked);
        assert_eq!(c.stats().blocked_inserts, 1);
        // Releasing one sharer unblocks the set.
        c.release_sharer(b);
        assert!(matches!(
            c.insert(LineAddr::new(4)),
            InsertOutcome::Installed { .. }
        ));
    }

    #[test]
    fn sharer_counts_nest() {
        let mut c = tiny_cache();
        let a = LineAddr::new(0);
        c.insert(a);
        c.add_sharer(a);
        c.add_sharer(a);
        c.release_sharer(a);
        c.add_sharer(LineAddr::new(0));
        c.release_sharer(a);
        c.release_sharer(a);
        // Now evictable again.
        c.insert(LineAddr::new(2));
        assert!(matches!(
            c.insert(LineAddr::new(4)),
            InsertOutcome::Installed { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn sharer_of_absent_line_panics() {
        let mut c = tiny_cache();
        c.add_sharer(LineAddr::new(9));
    }

    #[test]
    fn hit_ratio_tracks_lookups() {
        let mut c = tiny_cache();
        let a = LineAddr::new(0);
        assert!(!c.lookup(a));
        c.insert(a);
        assert!(c.lookup(a));
        assert!(c.lookup(a));
        assert!((c.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_returns_only_dirty() {
        let mut c = tiny_cache();
        let a = LineAddr::new(0);
        let b = LineAddr::new(1);
        c.insert(a);
        c.insert(b);
        c.mark_dirty(b);
        let flushed = c.flush_dirty();
        assert_eq!(flushed, vec![b]);
        assert!(c.flush_dirty().is_empty());
    }
}
