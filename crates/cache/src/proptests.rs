//! Property-based tests: the set-associative cache against a brute-force
//! reference model.

use proptest::prelude::*;

use crate::set_assoc::SetAssocCache;

/// Reference model: a plain list of (line, dirty, last_use) with the same
/// policy, checked against the real cache operation by operation.
struct RefCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    entries: Vec<(u64, bool, u64)>, // (line, dirty, last_use)
    clock: u64,
}

impl RefCache {
    fn new(capacity: u64, line_bytes: u64, ways: usize) -> Self {
        RefCache {
            line_bytes,
            sets: capacity / (line_bytes * ways as u64),
            ways,
            entries: Vec::new(),
            clock: 0,
        }
    }

    /// Returns (hit, victim) like the real cache.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set = line % self.sets;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|(l, _, _)| *l == line)
        {
            e.1 |= write;
            e.2 = self.clock;
            return (true, None);
        }
        let in_set: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (l, _, _))| l % self.sets == set)
            .map(|(i, _)| i)
            .collect();
        let victim = if in_set.len() >= self.ways {
            let &lru = in_set
                .iter()
                .min_by_key(|&&i| self.entries[i].2)
                .expect("nonempty");
            let (l, d, _) = self.entries.swap_remove(lru);
            Some((l * self.line_bytes, d))
        } else {
            None
        };
        self.entries.push((line, write, self.clock));
        (false, victim)
    }

    fn probe(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.entries.iter().any(|(l, _, _)| *l == line)
    }

    /// Dirties a resident line without touching its recency.
    fn mark_dirty(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        match self.entries.iter_mut().find(|(l, _, _)| *l == line) {
            Some(e) => {
                e.1 = true;
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, addr: u64) -> Option<(u64, bool)> {
        let line = addr / self.line_bytes;
        let i = self.entries.iter().position(|(l, _, _)| *l == line)?;
        let (l, d, _) = self.entries.swap_remove(i);
        Some((l * self.line_bytes, d))
    }
}

/// One operation of a randomized cache workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    MarkDirty(u64),
    Invalidate(u64),
    Probe(u64),
}

/// Accesses dominate (six in nine), as in the simulator; the other
/// operations are interleaved often enough to hit resident and absent
/// lines alike.
fn op() -> impl Strategy<Value = Op> {
    (0u8..9, 0u64..4096, any::<bool>()).prop_map(|(kind, addr, write)| match kind {
        0..=5 => Op::Access(addr, write),
        6 => Op::MarkDirty(addr),
        7 => Op::Invalidate(addr),
        _ => Op::Probe(addr),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cache agrees with the reference model on every access outcome,
    /// victim, probe, dirty mark and invalidation, over arbitrary
    /// interleavings of the four operations.
    #[test]
    fn matches_reference_model(
        ops in prop::collection::vec(op(), 1..300),
        ways in 1usize..5,
    ) {
        let capacity = 64 * ways as u64 * 8; // 8 sets
        let mut real = SetAssocCache::new(capacity, 64, ways).expect("cache");
        let mut reference = RefCache::new(capacity, 64, ways);
        for op in ops {
            match op {
                Op::Access(addr, write) => {
                    let r = real.access(addr, write);
                    let (hit, victim) = reference.access(addr, write);
                    prop_assert_eq!(r.hit, hit, "hit mismatch at {:#x}", addr);
                    let rv = r.victim.map(|v| (v.addr, v.dirty));
                    prop_assert_eq!(rv, victim, "victim mismatch at {:#x}", addr);
                }
                Op::MarkDirty(addr) => {
                    prop_assert_eq!(real.mark_dirty(addr), reference.mark_dirty(addr),
                        "mark_dirty mismatch at {:#x}", addr);
                }
                Op::Invalidate(addr) => {
                    let rv = real.invalidate(addr).map(|v| (v.addr, v.dirty));
                    prop_assert_eq!(rv, reference.invalidate(addr),
                        "invalidate mismatch at {:#x}", addr);
                }
                Op::Probe(addr) => {
                    prop_assert_eq!(real.probe(addr), reference.probe(addr),
                        "probe mismatch at {:#x}", addr);
                }
            }
        }
        prop_assert_eq!(real.resident_lines(), reference.entries.len());
    }

    /// Occupancy never exceeds capacity and probe agrees with access
    /// history.
    #[test]
    fn occupancy_bounded(
        ops in prop::collection::vec(0u64..100_000, 1..500),
    ) {
        let mut c = SetAssocCache::new(4096, 64, 4).expect("cache");
        for addr in &ops {
            let _ = c.access(*addr, false);
            prop_assert!(c.resident_lines() <= 64);
        }
        // The most recent access is always resident.
        let last = *ops.last().expect("nonempty");
        prop_assert!(c.probe(last));
    }
}
