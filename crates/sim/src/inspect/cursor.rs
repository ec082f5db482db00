//! Replay: step/seek/reset over a recorded event stream, and the
//! metrics and timeline rebuilt from it.
//!
//! [`Cursor`] is the time-travel half: it walks a stream forward one
//! event at a time, jumps to arbitrary positions, and runs to the next
//! [`super::Breakpoint`] hit. [`ReplayedRun`] is the whole-run half: it
//! folds the stream through [`Metrics::apply`] — the same fold the
//! engine tallies with live, using event payloads only — and rebuilds
//! the [`Timeline`] from the step snapshots.

use fpb_types::Cycles;

use crate::metrics::Metrics;
use crate::timeline::{Sample, Timeline};

use super::breakpoint::{BreakHit, Breakpoint};
use super::event::LifecycleEvent;

/// A replay position inside a recorded event stream.
#[derive(Debug, Clone)]
pub struct Cursor {
    events: Vec<LifecycleEvent>,
    pos: usize,
}

impl Cursor {
    /// Wraps a recorded stream, positioned before the first event.
    pub fn new(events: Vec<LifecycleEvent>) -> Cursor {
        Cursor { events, pos: 0 }
    }

    /// Total events in the stream.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Index of the next event [`Cursor::step`] would yield.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The whole stream (replay helpers like
    /// [`super::lineage_lines`] take the raw slice).
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// The next event without advancing.
    pub fn peek(&self) -> Option<&LifecycleEvent> {
        self.events.get(self.pos)
    }

    /// Yields the next event and advances past it; `None` at the end.
    pub fn step(&mut self) -> Option<&LifecycleEvent> {
        let ev = self.events.get(self.pos)?;
        self.pos += 1;
        Some(ev)
    }

    /// Jumps so the next [`Cursor::step`] yields event `index` (clamped
    /// to one-past-the-end).
    pub fn seek(&mut self, index: usize) {
        self.pos = index.min(self.events.len());
    }

    /// Rewinds to before the first event — time travel in one call:
    /// the stream is immutable, so replaying from the start is always
    /// exact.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Advances until `bp` fires, returning the hit (the cursor rests
    /// just past the matching event); `None` if the stream ends first.
    pub fn run_until(&mut self, bp: &mut Breakpoint) -> Option<BreakHit> {
        while self.pos < self.events.len() {
            let idx = self.pos;
            self.pos += 1;
            if let Some(hit) = bp.check(idx, &self.events[idx]) {
                return Some(hit);
            }
        }
        None
    }
}

/// A fully replayed run: the derived metrics plus the reconstructed
/// timeline (one [`Sample`] per recorded `StepSnapshot` — 1:1 with what
/// [`Timeline::record`] samples on a live system).
#[derive(Debug, Clone)]
pub struct ReplayedRun {
    /// The reconstructed bank-activity timeline.
    pub timeline: Timeline,
    /// The derived metrics.
    pub metrics: Metrics,
    /// Events consumed.
    pub events: usize,
}

impl ReplayedRun {
    /// Replays a complete stream.
    pub fn from_events(events: &[LifecycleEvent]) -> ReplayedRun {
        let mut metrics = Metrics::default();
        let mut banks = 0usize;
        let mut samples = Vec::new();
        for ev in events {
            if let LifecycleEvent::RunStart { banks: b, .. } = ev {
                banks = *b as usize;
            }
            if let LifecycleEvent::StepSnapshot { at, bank_mask, burst, wrq, rdq } = ev {
                samples.push(Sample {
                    at: Cycles::new(*at),
                    // The mask covers the first 64 banks (what the engine
                    // records); banks past it read as write-free.
                    bank_writes: (0..banks)
                        .map(|b| b < 64 && bank_mask & (1u64 << b) != 0)
                        .collect(),
                    burst: *burst,
                    wrq: *wrq as usize,
                    rdq: *rdq as usize,
                });
            }
            metrics.apply(ev);
        }
        ReplayedRun {
            timeline: Timeline::from_parts(samples, metrics.clone()),
            metrics,
            events: events.len(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cursor_steps_seeks_resets() {
        let evs = vec![
            LifecycleEvent::BrownoutStart { at: 1 },
            LifecycleEvent::BrownoutEnd { at: 2 },
            LifecycleEvent::RunEnd { at: 3 },
        ];
        let mut c = Cursor::new(evs);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.peek(), Some(&LifecycleEvent::BrownoutStart { at: 1 }));
        assert_eq!(c.step(), Some(&LifecycleEvent::BrownoutStart { at: 1 }));
        assert_eq!(c.pos(), 1);
        c.seek(2);
        assert_eq!(c.step(), Some(&LifecycleEvent::RunEnd { at: 3 }));
        assert_eq!(c.step(), None);
        c.reset();
        assert_eq!(c.pos(), 0);
        c.seek(99);
        assert_eq!(c.pos(), 3, "seek clamps");
    }

    #[test]
    fn replay_reconstructs_timeline_samples() {
        let evs = vec![
            LifecycleEvent::RunStart {
                cores: 2,
                instructions_per_core: 100,
                chips: 4,
                banks: 8,
                total_lines: 1024,
                cells_per_chip_per_line: 64,
                seed: 7,
            },
            LifecycleEvent::StepSnapshot { at: 0, bank_mask: 0b101, burst: false, wrq: 1, rdq: 2 },
            LifecycleEvent::StepSnapshot { at: 9, bank_mask: 0, burst: true, wrq: 0, rdq: 0 },
            LifecycleEvent::RunEnd { at: 9 },
        ];
        let r = ReplayedRun::from_events(&evs);
        assert_eq!(r.events, 4);
        assert_eq!(r.timeline.samples().len(), 2);
        let s0 = &r.timeline.samples()[0];
        assert_eq!(s0.at, Cycles::new(0));
        assert_eq!(s0.bank_writes.len(), 8);
        assert!(s0.bank_writes[0] && s0.bank_writes[2] && !s0.bank_writes[1]);
        assert_eq!((s0.wrq, s0.rdq), (1, 2));
        assert_eq!(r.metrics.cycles, 9);
        assert_eq!(r.metrics.cores, 2);
        assert!(r.metrics.endurance.is_some());
    }

    #[test]
    fn bank_mask_past_64_banks_reads_write_free() {
        let evs = vec![
            LifecycleEvent::RunStart {
                cores: 1,
                instructions_per_core: 10,
                chips: 8,
                banks: 70,
                total_lines: 1024,
                cells_per_chip_per_line: 128,
                seed: 1,
            },
            LifecycleEvent::StepSnapshot { at: 0, bank_mask: 1 << 63 | 1, burst: false, wrq: 0, rdq: 0 },
        ];
        let r = ReplayedRun::from_events(&evs);
        let s0 = &r.timeline.samples()[0];
        assert_eq!(s0.bank_writes.len(), 70);
        assert!(s0.bank_writes[0] && s0.bank_writes[63]);
        assert!(s0.bank_writes[64..].iter().all(|w| !w), "no aliasing onto banks 64+");
    }
}
