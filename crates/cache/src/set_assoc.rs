//! A generic set-associative, write-back, write-allocate cache.

use crate::stats::CacheStats;
use fpb_types::ConfigError;

/// A line evicted to make room for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Byte address of the first byte of the evicted line.
    pub addr: u64,
    /// True if the line was modified and must be written back.
    pub dirty: bool,
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True if the line was already present.
    pub hit: bool,
    /// Victim evicted by the allocation this access performed (misses
    /// allocate; hits never evict).
    pub victim: Option<Victim>,
}

/// One way of a set, packed to 16 bytes: the line tag plus a `meta` word
/// folding validity, dirtiness and recency together. `meta == 0` means
/// the way is invalid; otherwise bit 63 is the dirty flag and the low 63
/// bits are the `last_use` clock stamp. The clock is bumped before every
/// stamp, so stamps start at 1 and a valid line never has `meta == 0`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    meta: u64,
}

const DIRTY: u64 = 1 << 63;

const INVALID: Entry = Entry { tag: 0, meta: 0 };

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    fn valid(self) -> bool {
        self.meta != 0
    }

    fn dirty(self) -> bool {
        self.meta & DIRTY != 0
    }

    fn last_use(self) -> u64 {
        self.meta & !DIRTY
    }

    fn holds(self, line: u64) -> bool {
        self.valid() && self.tag == line
    }
}

/// A set-associative cache with true-LRU replacement, write-back and
/// write-allocate policies.
///
/// Addresses are byte addresses; the cache maps them to lines internally.
///
/// # Examples
///
/// ```
/// use fpb_cache::SetAssocCache;
///
/// // 1 KiB cache, 64 B lines, 4-way: 4 sets.
/// let mut c = SetAssocCache::new(1024, 64, 4).unwrap();
/// assert!(!c.access(0, false).hit);
/// assert!(c.access(32, false).hit);       // same line
/// assert!(!c.access(4096, true).hit);     // different set? no: set 0 too
/// assert_eq!(c.stats().misses(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    entries: Vec<Entry>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with the given line size and
    /// associativity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the line size is not a power of two, the
    /// capacity is not a multiple of `line_bytes × ways`, or any parameter
    /// is zero.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Result<Self, ConfigError> {
        if line_bytes == 0 || !line_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "cache.line_bytes",
                "must be a nonzero power of two",
            ));
        }
        if ways == 0 {
            return Err(ConfigError::new("cache.ways", "must be nonzero"));
        }
        if capacity_bytes == 0 || !capacity_bytes.is_multiple_of(line_bytes * ways as u64) {
            return Err(ConfigError::new(
                "cache.capacity_bytes",
                "must be a nonzero multiple of line_bytes * ways",
            ));
        }
        let sets = capacity_bytes / (line_bytes * ways as u64);
        Ok(SetAssocCache {
            line_bytes,
            sets,
            ways,
            entries: vec![INVALID; (sets as usize) * ways],
            clock: 0,
            stats: CacheStats::new(),
        })
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Access statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn line_of(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Accesses `byte_addr`; `write` marks the line dirty. Misses allocate
    /// (write-allocate) and may evict an LRU victim.
    pub fn access(&mut self, byte_addr: u64, write: bool) -> AccessResult {
        self.clock += 1;
        debug_assert!(
            self.clock < DIRTY,
            "LRU clock overflowed into the dirty bit"
        );
        let line = self.line_of(byte_addr);
        let range = self.set_range(line);
        let clock = self.clock;
        let dirty = if write { DIRTY } else { 0 };

        // Hit path.
        for e in &mut self.entries[range.clone()] {
            if e.holds(line) {
                e.meta = (e.meta & DIRTY) | dirty | clock;
                self.stats.record_hit();
                return AccessResult {
                    hit: true,
                    victim: None,
                };
            }
        }

        // Miss: find an invalid way or the LRU victim.
        self.stats.record_miss();
        let set = &mut self.entries[range];
        let slot = set.iter().position(|e| !e.valid()).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use())
                .map(|(i, _)| i)
                .expect("set is never empty")
        });
        let victim = if set[slot].valid() {
            let v = Victim {
                addr: set[slot].tag * self.line_bytes,
                dirty: set[slot].dirty(),
            };
            self.stats.record_eviction(v.dirty);
            Some(v)
        } else {
            None
        };
        set[slot] = Entry {
            tag: line,
            meta: dirty | clock,
        };
        AccessResult { hit: false, victim }
    }

    /// True if the line containing `byte_addr` is present (no LRU update).
    pub fn probe(&self, byte_addr: u64) -> bool {
        let line = self.line_of(byte_addr);
        self.entries[self.set_range(line)]
            .iter()
            .any(|e| e.holds(line))
    }

    /// Marks a resident line dirty without an access (used when a lower
    /// level pushes a write-back into this cache). Returns false if the
    /// line is absent.
    pub fn mark_dirty(&mut self, byte_addr: u64) -> bool {
        let line = self.line_of(byte_addr);
        let range = self.set_range(line);
        for e in &mut self.entries[range] {
            if e.holds(line) {
                e.meta |= DIRTY;
                return true;
            }
        }
        false
    }

    /// Invalidates the line containing `byte_addr`, returning its victim
    /// record if it was present.
    pub fn invalidate(&mut self, byte_addr: u64) -> Option<Victim> {
        let line = self.line_of(byte_addr);
        let range = self.set_range(line);
        let line_bytes = self.line_bytes;
        for e in &mut self.entries[range] {
            if e.holds(line) {
                let v = Victim {
                    addr: e.tag * line_bytes,
                    dirty: e.dirty(),
                };
                *e = INVALID;
                return Some(v);
            }
        }
        None
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.entries.iter().filter(|e| e.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets, 2 ways, 64 B lines = 256 B.
        SetAssocCache::new(256, 64, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(SetAssocCache::new(256, 60, 2).is_err()); // non-pow2 line
        assert!(SetAssocCache::new(100, 64, 2).is_err()); // not multiple
        assert!(SetAssocCache::new(256, 64, 0).is_err());
        assert!(SetAssocCache::new(0, 64, 2).is_err());
        let c = SetAssocCache::new(1 << 20, 64, 4).unwrap();
        assert_eq!(c.sets(), (1 << 20) / (64 * 4));
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(63, false).hit); // same line
        assert!(!c.access(64, false).hit); // next line, set 1
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0, 2, 4, ... (line % 2 == 0).
        c.access(0, false); // line 0
        c.access(2 * 64, false); // line 2 — set 0 now full
        c.access(0, false); // touch line 0 (line 2 is now LRU)
        let r = c.access(4 * 64, false); // line 4 evicts line 2
        let v = r.victim.unwrap();
        assert_eq!(v.addr, 2 * 64);
        assert!(!v.dirty);
        assert!(c.probe(0));
        assert!(!c.probe(2 * 64));
    }

    #[test]
    fn writeback_only_for_dirty_victims() {
        let mut c = small();
        c.access(0, true); // dirty line 0
        c.access(2 * 64, false); // clean line 2
        let r = c.access(4 * 64, false); // evicts line 0 (LRU)
        assert_eq!(
            r.victim,
            Some(Victim {
                addr: 0,
                dirty: true
            })
        );
        let r = c.access(6 * 64, false); // evicts line 2, clean
        assert!(!r.victim.unwrap().dirty);
        assert_eq!(c.stats().dirty_evictions(), 1);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // dirty it via a write hit
        c.access(2 * 64, false);
        c.access(4 * 64, false); // evict line 0
        assert_eq!(c.stats().dirty_evictions(), 1);
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = small();
        c.access(0, false);
        assert!(c.mark_dirty(0));
        assert!(!c.mark_dirty(64)); // absent
        let v = c.invalidate(0).unwrap();
        assert!(v.dirty);
        assert!(c.invalidate(0).is_none());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        // Fill set 0 beyond capacity; set 1 lines must stay resident.
        c.access(64, false); // set 1
        for i in 0..10u64 {
            c.access(i * 2 * 64, false); // all set 0
        }
        assert!(c.probe(64));
    }

    #[test]
    fn working_set_within_capacity_never_misses_twice() {
        let mut c = SetAssocCache::new(8192, 64, 4).unwrap();
        let lines = 8192 / 64;
        for i in 0..lines {
            c.access(i * 64, false);
        }
        let misses_before = c.stats().misses();
        for round in 0..5 {
            for i in 0..lines {
                assert!(c.access(i * 64, false).hit, "round {round} line {i}");
            }
        }
        assert_eq!(c.stats().misses(), misses_before);
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = small();
        for i in 0..100 {
            c.access(i * 64, i % 3 == 0);
        }
        assert!(c.resident_lines() <= 4);
    }
}
