//! Deterministic fault injection for the PCM device model.
//!
//! The paper's device physics imply three reliability hazards that a real
//! MLC PCM controller must survive:
//!
//! * **Verify failures** (§2.1.1) — program-and-verify is inherently
//!   non-deterministic; a round can end with cells still unconverged, and
//!   the controller must re-issue it.
//! * **Endurance-driven stuck-at faults** — worn cells eventually stick at
//!   one resistance level. The injector keys these off the
//!   [`EnduranceTracker`]'s per-region wear counts, so fault pressure
//!   grows exactly where the write traffic concentrates.
//! * **Charge-pump brownout** (§2.1.2–§2.1.3) — the pumps are the scarce,
//!   fragile resource; a supply sag shrinks every token budget for a
//!   window of cycles.
//!
//! Everything is driven by a dedicated [`SimRng`] stream, so fault
//! sequences are exactly reproducible from the seed, and **no RNG draw is
//! made for a knob that is at zero** — a fully-disabled injector is
//! bit-for-bit inert.
//!
//! # Examples
//!
//! ```
//! use fpb_pcm::faults::FaultInjector;
//! use fpb_types::{Cycles, FaultConfig, LineAddr, SimRng};
//!
//! let cfg = FaultConfig {
//!     verify_fail_prob: 0.5,
//!     ..FaultConfig::default()
//! };
//! let mut inj = FaultInjector::new(cfg, SimRng::seed_from(7));
//! let flaky = (0..100)
//!     .filter(|_| inj.round_fails_verify(LineAddr::new(0)))
//!     .count();
//! assert!(flaky > 20 && flaky < 80);
//! ```

use std::collections::BTreeSet;

use fpb_types::{Cycles, FaultConfig, LineAddr, SimRng};

use crate::endurance::EnduranceTracker;

/// Injects verify failures, stuck-at faults, and brownout windows into the
/// write pipeline, reproducibly.
///
/// The injector is pure device model: it decides *what goes wrong*. The
/// controller-side recovery (retry, remap, degraded mode) lives in the
/// simulator and merely consults this type.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: SimRng,
    /// Lines currently stuck: every verify on them fails until remapped.
    stuck: BTreeSet<u64>,
    /// Lines remapped to spares: healthy again, and exempt from further
    /// stuck-at injection (spares are fresh cells).
    remapped: BTreeSet<u64>,
    stuck_marked: u64,
}

impl FaultInjector {
    /// Creates an injector from validated config and a dedicated RNG
    /// stream (fork it off the run's master seed).
    pub fn new(cfg: FaultConfig, rng: SimRng) -> Self {
        FaultInjector {
            cfg,
            rng,
            stuck: BTreeSet::new(),
            remapped: BTreeSet::new(),
            stuck_marked: 0,
        }
    }

    /// The configuration this injector runs with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides whether the write round that just finished on `line` fails
    /// its final verify.
    ///
    /// Stuck lines fail deterministically (no RNG draw — the fault is in
    /// the cells, not the luck). Remapped lines never fail (and draw no
    /// RNG): spares are fresh, factory-verified cells, and exempting them
    /// is what makes remap a terminating recovery even at
    /// `verify_fail_prob = 1.0`. Otherwise a Bernoulli draw at
    /// `verify_fail_prob` decides, and only if that knob is nonzero.
    pub fn round_fails_verify(&mut self, line: LineAddr) -> bool {
        if self.stuck.contains(&line.get()) {
            return true;
        }
        if self.remapped.contains(&line.get()) {
            return false;
        }
        self.cfg.verify_fail_prob > 0.0 && self.rng.bernoulli(self.cfg.verify_fail_prob)
    }

    /// Records a completed write to `line` and possibly marks the line
    /// stuck, based on the wear of its region in `wear`.
    ///
    /// Call after the round passed verify and its wear was recorded.
    pub fn note_write(&mut self, line: LineAddr, wear: &EnduranceTracker) {
        if self.cfg.stuck_cell_prob <= 0.0 {
            return;
        }
        let key = line.get();
        if self.stuck.contains(&key) || self.remapped.contains(&key) {
            return;
        }
        if wear.region_cells_written(line) < self.cfg.stuck_wear_threshold {
            return;
        }
        if self.rng.bernoulli(self.cfg.stuck_cell_prob) {
            self.stuck.insert(key);
            self.stuck_marked += 1;
        }
    }

    /// Remaps `line` to a spare: it stops failing and is exempt from
    /// further stuck-at injection. The controller calls this when retries
    /// are exhausted.
    pub fn remap(&mut self, line: LineAddr) {
        self.stuck.remove(&line.get());
        self.remapped.insert(line.get());
    }

    /// True if `line` is currently stuck (fails every verify).
    pub fn is_stuck(&self, line: LineAddr) -> bool {
        self.stuck.contains(&line.get())
    }

    /// True if `line` has been remapped to a spare.
    pub fn is_remapped(&self, line: LineAddr) -> bool {
        self.remapped.contains(&line.get())
    }

    /// Number of lines marked stuck so far.
    pub fn stuck_marked(&self) -> u64 {
        self.stuck_marked
    }

    /// Number of lines currently stuck (marked and not yet remapped).
    pub fn stuck_lines(&self) -> usize {
        self.stuck.len()
    }

    /// Number of lines remapped to spares.
    pub fn remapped_lines(&self) -> usize {
        self.remapped.len()
    }

    /// True if the DIMM is browned out at `now`.
    ///
    /// Brownout windows are periodic and occupy the *end* of each period
    /// (the first window starts at `period − duration`, so a run always
    /// begins at full power). Purely a function of time: brownouts model a
    /// deterministic supply-sag schedule, not a random process, which
    /// keeps window edges exactly reproducible for event scheduling.
    pub fn brownout_active(&self, now: Cycles) -> bool {
        if !self.cfg.brownouts_enabled() {
            return false;
        }
        let phase = now.get() % self.cfg.brownout_period;
        phase >= self.cfg.brownout_period - self.cfg.brownout_duration
    }

    /// The next cycle at which the brownout state flips (window start or
    /// end), or `None` when brownouts are disabled. Event-driven engines
    /// must include this in their next-event computation so they wake at
    /// window edges.
    pub fn next_brownout_boundary(&self, now: Cycles) -> Option<Cycles> {
        if !self.cfg.brownouts_enabled() {
            return None;
        }
        let period = self.cfg.brownout_period;
        let start_phase = period - self.cfg.brownout_duration;
        let phase = now.get() % period;
        let base = now.get() - phase;
        let next = if phase < start_phase {
            base + start_phase // upcoming window start
        } else {
            base + period // end of the active window
        };
        Some(Cycles::new(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wear_tracker() -> EnduranceTracker {
        EnduranceTracker::new(1024, 16, 8, 1_000_000)
    }

    #[test]
    fn disabled_injector_never_fires_and_never_draws() {
        let mut a = FaultInjector::new(FaultConfig::default(), SimRng::seed_from(1));
        let wear = wear_tracker();
        for i in 0..200 {
            assert!(!a.round_fails_verify(LineAddr::new(i)));
            a.note_write(LineAddr::new(i), &wear);
        }
        assert_eq!(a.stuck_lines(), 0);
        // The RNG stream was never touched: it still matches a fresh one.
        let mut fresh = SimRng::seed_from(1);
        let mut used = a.rng.clone();
        for _ in 0..8 {
            assert_eq!(used.next_u64(), fresh.next_u64());
        }
    }

    #[test]
    fn verify_failures_are_reproducible() {
        let cfg = FaultConfig {
            verify_fail_prob: 0.3,
            ..FaultConfig::default()
        };
        let run = |seed| {
            let mut inj = FaultInjector::new(cfg.clone(), SimRng::seed_from(seed));
            (0..64)
                .map(|i| inj.round_fails_verify(LineAddr::new(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn stuck_at_requires_wear_then_fails_until_remap() {
        let cfg = FaultConfig {
            stuck_cell_prob: 1.0,
            stuck_wear_threshold: 100,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, SimRng::seed_from(5));
        let mut wear = wear_tracker();
        let line = LineAddr::new(7);

        // Young region: cannot stick.
        inj.note_write(line, &wear);
        assert!(!inj.is_stuck(line));

        // Push the region past the threshold; certainty prob then sticks it.
        wear.record_write(line, &[20; 8]);
        inj.note_write(line, &wear);
        assert!(inj.is_stuck(line));
        assert_eq!(inj.stuck_marked(), 1);

        // Stuck lines fail verify deterministically.
        assert!(inj.round_fails_verify(line));
        assert!(inj.round_fails_verify(line));

        // Remap heals the line and exempts it from re-sticking.
        inj.remap(line);
        assert!(!inj.is_stuck(line));
        assert!(inj.is_remapped(line));
        assert!(!inj.round_fails_verify(line));
        inj.note_write(line, &wear);
        assert!(!inj.is_stuck(line), "remapped spare must not re-stick");
        assert_eq!(inj.remapped_lines(), 1);
    }

    #[test]
    fn remapped_lines_pass_verify_even_at_certainty() {
        // Remap must terminate recovery: even with every verify failing,
        // the rewrite onto the spare succeeds — and without an RNG draw.
        let cfg = FaultConfig {
            verify_fail_prob: 1.0,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, SimRng::seed_from(9));
        let line = LineAddr::new(3);
        assert!(inj.round_fails_verify(line));
        inj.remap(line);
        let before = inj.rng.clone();
        assert!(!inj.round_fails_verify(line));
        let mut a = inj.rng.clone();
        let mut b = before.clone();
        assert_eq!(a.next_u64(), b.next_u64(), "remapped verify must not draw");
    }

    #[test]
    fn brownout_windows_sit_at_period_end() {
        let cfg = FaultConfig {
            brownout_period: 1000,
            brownout_duration: 200,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, SimRng::seed_from(1));
        assert!(!inj.brownout_active(Cycles::new(0)));
        assert!(!inj.brownout_active(Cycles::new(799)));
        assert!(inj.brownout_active(Cycles::new(800)));
        assert!(inj.brownout_active(Cycles::new(999)));
        assert!(!inj.brownout_active(Cycles::new(1000)));

        assert_eq!(
            inj.next_brownout_boundary(Cycles::new(0)),
            Some(Cycles::new(800))
        );
        assert_eq!(
            inj.next_brownout_boundary(Cycles::new(800)),
            Some(Cycles::new(1000))
        );
        assert_eq!(
            inj.next_brownout_boundary(Cycles::new(1500)),
            Some(Cycles::new(1800))
        );
    }

    #[test]
    fn brownouts_disabled_by_default() {
        let inj = FaultInjector::new(FaultConfig::default(), SimRng::seed_from(1));
        assert!(!inj.brownout_active(Cycles::new(123_456)));
        assert_eq!(inj.next_brownout_boundary(Cycles::new(0)), None);
    }
}
