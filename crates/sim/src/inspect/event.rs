//! The typed lifecycle event vocabulary and its wire codec.
//!
//! Every engine stage boundary emits exactly one [`LifecycleEvent`]; the
//! stream is a complete record of a run. The engine tallies
//! [`crate::Metrics`] only by folding these events through
//! [`crate::Metrics::apply`], so replaying a recorded stream through the
//! same fold rebuilds the run's metrics byte for byte.
//!
//! The wire form is one ASCII line per event: a two-letter kind tag
//! followed by space-separated decimal fields (booleans as `0`/`1`,
//! write stages as two-letter codes). Like the metrics record encoding,
//! it is exact — `decode(encode(ev)) == ev` for every event — which is
//! what makes the recorded log a replayable artifact rather than a
//! human-only trace.

use std::fmt;

use crate::scheme::WriteStage;

/// Which scheme lifecycle hook produced a [`LifecycleEvent::SchemeDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeHook {
    /// [`crate::scheme::Scheme::on_admit`].
    Admit,
    /// [`crate::scheme::Scheme::on_iteration`].
    Iteration,
    /// [`crate::scheme::Scheme::on_read_arrival`].
    ReadArrival,
    /// [`crate::scheme::Scheme::on_release`].
    Release,
}

impl SchemeHook {
    fn code(self) -> &'static str {
        match self {
            SchemeHook::Admit => "a",
            SchemeHook::Iteration => "i",
            SchemeHook::ReadArrival => "r",
            SchemeHook::Release => "l",
        }
    }

    fn from_code(s: &str) -> Option<SchemeHook> {
        Some(match s {
            "a" => SchemeHook::Admit,
            "i" => SchemeHook::Iteration,
            "r" => SchemeHook::ReadArrival,
            "l" => SchemeHook::Release,
            _ => return None,
        })
    }
}

/// Which [`fpb_core::PowerManager`] call a [`LifecycleEvent::Power`]
/// snapshot was taken after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerOp {
    /// `try_admit` (round admission).
    Admit,
    /// `try_advance` (iteration-boundary re-budgeting).
    Advance,
    /// `release` (completion, pause, or cancellation).
    Release,
    /// `begin_brownout` (window start withholds tokens).
    BrownoutBegin,
    /// `end_brownout` (window end restores tokens).
    BrownoutEnd,
}

impl PowerOp {
    fn code(self) -> &'static str {
        match self {
            PowerOp::Admit => "a",
            PowerOp::Advance => "v",
            PowerOp::Release => "r",
            PowerOp::BrownoutBegin => "b",
            PowerOp::BrownoutEnd => "e",
        }
    }

    fn from_code(s: &str) -> Option<PowerOp> {
        Some(match s {
            "a" => PowerOp::Admit,
            "v" => PowerOp::Advance,
            "r" => PowerOp::Release,
            "b" => PowerOp::BrownoutBegin,
            "e" => PowerOp::BrownoutEnd,
            _ => return None,
        })
    }
}

/// Two-letter wire code for a [`WriteStage`].
pub fn stage_code(stage: WriteStage) -> &'static str {
    match stage {
        WriteStage::Queued => "qu",
        WriteStage::PreRead => "pr",
        WriteStage::Iterating => "it",
        WriteStage::TokenStalled => "ts",
        WriteStage::Paused => "pa",
        WriteStage::RoundPending => "rp",
        WriteStage::Backoff => "bo",
        WriteStage::Draining => "dr",
        WriteStage::Done => "dn",
    }
}

/// Inverse of [`stage_code`].
pub fn stage_from_code(s: &str) -> Option<WriteStage> {
    Some(match s {
        "qu" => WriteStage::Queued,
        "pr" => WriteStage::PreRead,
        "it" => WriteStage::Iterating,
        "ts" => WriteStage::TokenStalled,
        "pa" => WriteStage::Paused,
        "rp" => WriteStage::RoundPending,
        "bo" => WriteStage::Backoff,
        "dr" => WriteStage::Draining,
        "dn" => WriteStage::Done,
        _ => return None,
    })
}

/// One typed, serializable engine stage transition (or run-level marker).
///
/// Times are absolute simulation cycles; ids are the engine's per-run
/// [`fpb_core::WriteId`] values. The variants carry every counter the
/// engine reports — [`crate::Metrics::apply`] is the only place one is
/// tallied — so the stream *derives* the metrics rather than merely
/// annotating them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// Run configuration, emitted once at construction. Carries exactly
    /// what the metrics fold and replay need to size the run-shaped
    /// state (the endurance tracker, the bank-mask width).
    RunStart {
        /// Core count.
        cores: u8,
        /// Instruction budget per core.
        instructions_per_core: u64,
        /// PCM chip count per DIMM.
        chips: u8,
        /// PCM bank count.
        banks: u8,
        /// Total line count (endurance-tracker geometry).
        total_lines: u64,
        /// Cells per chip per line (endurance-tracker geometry).
        cells_per_chip_per_line: u64,
        /// The run's root RNG seed (provenance only; replay never re-rolls).
        seed: u64,
    },
    /// Pre-step snapshot, emitted at the top of every engine step — 1:1
    /// with [`crate::timeline::Timeline`] samples, so replay reconstructs
    /// the timeline exactly.
    StepSnapshot {
        /// Simulation time of the snapshot.
        at: u64,
        /// Bit `b` set iff bank `b` holds a write (first 64 banks).
        bank_mask: u64,
        /// Controller in write-burst mode?
        burst: bool,
        /// Write-queue depth.
        wrq: u64,
        /// Read-queue depth.
        rdq: u64,
    },
    /// Time advanced from `from` to `to` with the given activity flags
    /// (derives the four activity-cycle counters).
    TimeAdvance {
        /// Interval start.
        from: u64,
        /// Interval end.
        to: u64,
        /// Write burst active over the interval?
        burst: bool,
        /// At least one write iterating?
        writing: bool,
        /// Brownout window active?
        brownout: bool,
        /// Degraded (SLC-fallback) mode active?
        degraded: bool,
    },
    /// A write task was built for a dirty eviction.
    WriteCreated {
        /// The task's write id.
        id: u64,
        /// Target line address.
        line: u64,
        /// Target bank.
        bank: u8,
        /// Creation time.
        at: u64,
        /// Number of power-split rounds.
        rounds: u64,
        /// Issued in degraded (SLC) mode?
        degraded: bool,
    },
    /// A queued write to the same line was replaced by fresher data.
    WriteCoalesced {
        /// The replaced task's id.
        old_id: u64,
        /// The replacing task's id.
        new_id: u64,
        /// The shared line address.
        line: u64,
        /// Coalesce time.
        at: u64,
    },
    /// A write won token admission and left the write queue.
    WriteAdmitted {
        /// The admitted write.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Admission time.
        at: u64,
        /// Cycles spent queued (arrival to this admission).
        queue_delay: u64,
    },
    /// A write-lifecycle stage transition (the engine's
    /// [`crate::scheme::WriteLifecycle`] checks, now recorded).
    Stage {
        /// The write moving between stages.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Transition time.
        at: u64,
        /// Stage left.
        from: WriteStage,
        /// Stage entered.
        to: WriteStage,
    },
    /// A scheme lifecycle hook was consulted; `action` is the hook's
    /// enum discriminant (0 = first variant).
    SchemeDecision {
        /// Which hook ran.
        hook: SchemeHook,
        /// The chosen action's discriminant.
        action: u8,
        /// The write the decision concerns (0 for bank-level hooks with
        /// no task in flight).
        id: u64,
        /// The bank concerned.
        bank: u8,
        /// Decision time.
        at: u64,
    },
    /// Power-accounting snapshot taken immediately after a
    /// [`fpb_core::PowerManager`] call — the nine raw
    /// [`fpb_core::PowerStats`] counters plus the audit-violation count.
    /// Absolute values, not deltas (outstanding/peak are not additive).
    Power {
        /// The write the call concerned (0 for brownout edges).
        id: u64,
        /// Which manager call ran.
        op: PowerOp,
        /// Whether the call succeeded (always true for release/brownout).
        ok: bool,
        /// Call time.
        at: u64,
        /// `PowerStats::to_raw()` after the call.
        stats: [u64; 9],
        /// `PowerManager::audit_violations()` after the call.
        audit: u64,
    },
    /// A read was issued to its bank.
    ReadIssued {
        /// Requesting core (0 for background scrubs).
        core: u64,
        /// Target bank.
        bank: u8,
        /// Issue time.
        at: u64,
        /// Service latency charged (queue entry to data return).
        latency: u64,
        /// Background drift scrub (no core to wake)?
        scrub: bool,
    },
    /// A read completed and freed its bank.
    ReadDone {
        /// The bank freed.
        bank: u8,
        /// Completion time.
        at: u64,
        /// Background drift scrub?
        scrub: bool,
    },
    /// A write round closed successfully (verify passed or watchdog
    /// force-close).
    RoundClosed {
        /// The write whose round closed.
        id: u64,
        /// Its line.
        line: u64,
        /// Its bank.
        bank: u8,
        /// Close time.
        at: u64,
        /// Cells programmed by the round.
        cells: u64,
        /// Round ended early by write truncation?
        truncated: bool,
        /// Was this the task's last round (the line write completed)?
        final_round: bool,
        /// Cells programmed per chip (length = chip count).
        per_chip: Vec<u32>,
    },
    /// The endurance-triggered fault model marked lines stuck-at.
    StuckMarked {
        /// Newly stuck lines (the injector marks at most one per write).
        lines: u64,
        /// Mark time.
        at: u64,
    },
    /// A round's closing verify failed (injected).
    VerifyFailed {
        /// The failing write.
        id: u64,
        /// Its line.
        line: u64,
        /// Failure time.
        at: u64,
        /// Retries exhausted — the line was remapped and the round
        /// rewritten in SLC fallback?
        remapped: bool,
        /// Retry count after this failure's bookkeeping.
        retries: u64,
    },
    /// The controller watchdog force-closed a round.
    WatchdogTripped {
        /// The write force-closed.
        id: u64,
        /// Its bank.
        bank: u8,
        /// Trip time.
        at: u64,
    },
    /// A brownout window began (tokens withheld).
    BrownoutStart {
        /// Window start time.
        at: u64,
    },
    /// A brownout window ended (tokens restored).
    BrownoutEnd {
        /// Window end time.
        at: u64,
    },
    /// A core retired its instruction budget.
    CoreDone {
        /// The finished core.
        core: u64,
        /// Its retire time.
        at: u64,
    },
    /// The run finished; `at` is the final cycle count.
    RunEnd {
        /// Final elapsed cycles (max core retire time).
        at: u64,
    },
}

impl LifecycleEvent {
    /// The write id this event concerns, if any.
    pub fn write_id(&self) -> Option<u64> {
        match self {
            LifecycleEvent::WriteCreated { id, .. }
            | LifecycleEvent::WriteAdmitted { id, .. }
            | LifecycleEvent::Stage { id, .. }
            | LifecycleEvent::RoundClosed { id, .. }
            | LifecycleEvent::VerifyFailed { id, .. }
            | LifecycleEvent::WatchdogTripped { id, .. } => Some(*id),
            LifecycleEvent::WriteCoalesced { new_id, .. } => Some(*new_id),
            LifecycleEvent::SchemeDecision { id, .. } | LifecycleEvent::Power { id, .. }
                if *id != 0 =>
            {
                Some(*id)
            }
            _ => None,
        }
    }

    /// The simulation time this event carries, if any.
    pub fn at(&self) -> Option<u64> {
        match self {
            LifecycleEvent::RunStart { .. } => None,
            LifecycleEvent::StepSnapshot { at, .. }
            | LifecycleEvent::WriteCreated { at, .. }
            | LifecycleEvent::WriteCoalesced { at, .. }
            | LifecycleEvent::WriteAdmitted { at, .. }
            | LifecycleEvent::Stage { at, .. }
            | LifecycleEvent::SchemeDecision { at, .. }
            | LifecycleEvent::Power { at, .. }
            | LifecycleEvent::ReadIssued { at, .. }
            | LifecycleEvent::ReadDone { at, .. }
            | LifecycleEvent::RoundClosed { at, .. }
            | LifecycleEvent::StuckMarked { at, .. }
            | LifecycleEvent::VerifyFailed { at, .. }
            | LifecycleEvent::WatchdogTripped { at, .. }
            | LifecycleEvent::BrownoutStart { at }
            | LifecycleEvent::BrownoutEnd { at }
            | LifecycleEvent::CoreDone { at, .. }
            | LifecycleEvent::RunEnd { at } => Some(*at),
            LifecycleEvent::TimeAdvance { to, .. } => Some(*to),
        }
    }

    /// Encodes the event as its one-line wire form (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::new();
        self.encode_into(&mut line);
        line
    }

    /// Appends the event's wire form (no trailing newline) to `out`,
    /// without allocating beyond `out`'s own growth.
    pub fn encode_into(&self, out: &mut String) {
        fn fields(out: &mut String, vs: &[u64]) {
            for &v in vs {
                out.push(' ');
                push_decimal(out, v);
            }
        }
        fn code(out: &mut String, c: &str) {
            out.push(' ');
            out.push_str(c);
        }
        let b = u64::from;
        match self {
            LifecycleEvent::RunStart {
                cores,
                instructions_per_core,
                chips,
                banks,
                total_lines,
                cells_per_chip_per_line,
                seed,
            } => {
                out.push_str("rs");
                fields(
                    out,
                    &[
                        u64::from(*cores),
                        *instructions_per_core,
                        u64::from(*chips),
                        u64::from(*banks),
                        *total_lines,
                        *cells_per_chip_per_line,
                        *seed,
                    ],
                );
            }
            LifecycleEvent::StepSnapshot { at, bank_mask, burst, wrq, rdq } => {
                out.push_str("ss");
                fields(out, &[*at, *bank_mask, b(*burst), *wrq, *rdq]);
            }
            LifecycleEvent::TimeAdvance { from, to, burst, writing, brownout, degraded } => {
                out.push_str("ta");
                fields(out, &[*from, *to, b(*burst), b(*writing), b(*brownout), b(*degraded)]);
            }
            LifecycleEvent::WriteCreated { id, line, bank, at, rounds, degraded } => {
                out.push_str("wc");
                fields(out, &[*id, *line, u64::from(*bank), *at, *rounds, b(*degraded)]);
            }
            LifecycleEvent::WriteCoalesced { old_id, new_id, line, at } => {
                out.push_str("wx");
                fields(out, &[*old_id, *new_id, *line, *at]);
            }
            LifecycleEvent::WriteAdmitted { id, bank, at, queue_delay } => {
                out.push_str("wa");
                fields(out, &[*id, u64::from(*bank), *at, *queue_delay]);
            }
            LifecycleEvent::Stage { id, bank, at, from, to } => {
                out.push_str("st");
                fields(out, &[*id, u64::from(*bank), *at]);
                code(out, stage_code(*from));
                code(out, stage_code(*to));
            }
            LifecycleEvent::SchemeDecision { hook, action, id, bank, at } => {
                out.push_str("sd");
                code(out, hook.code());
                fields(out, &[u64::from(*action), *id, u64::from(*bank), *at]);
            }
            LifecycleEvent::Power { id, op, ok, at, stats, audit } => {
                out.push_str("pw");
                fields(out, &[*id]);
                code(out, op.code());
                fields(out, &[b(*ok), *at]);
                fields(out, stats);
                fields(out, &[*audit]);
            }
            LifecycleEvent::ReadIssued { core, bank, at, latency, scrub } => {
                out.push_str("ri");
                fields(out, &[*core, u64::from(*bank), *at, *latency, b(*scrub)]);
            }
            LifecycleEvent::ReadDone { bank, at, scrub } => {
                out.push_str("rd");
                fields(out, &[u64::from(*bank), *at, b(*scrub)]);
            }
            LifecycleEvent::RoundClosed {
                id,
                line,
                bank,
                at,
                cells,
                truncated,
                final_round,
                per_chip,
            } => {
                out.push_str("rc");
                fields(
                    out,
                    &[
                        *id,
                        *line,
                        u64::from(*bank),
                        *at,
                        *cells,
                        b(*truncated),
                        b(*final_round),
                        per_chip.len() as u64,
                    ],
                );
                for &v in per_chip {
                    fields(out, &[u64::from(v)]);
                }
            }
            LifecycleEvent::StuckMarked { lines, at } => {
                out.push_str("sm");
                fields(out, &[*lines, *at]);
            }
            LifecycleEvent::VerifyFailed { id, line, at, remapped, retries } => {
                out.push_str("vf");
                fields(out, &[*id, *line, *at, b(*remapped), *retries]);
            }
            LifecycleEvent::WatchdogTripped { id, bank, at } => {
                out.push_str("wt");
                fields(out, &[*id, u64::from(*bank), *at]);
            }
            LifecycleEvent::BrownoutStart { at } => {
                out.push_str("bs");
                fields(out, &[*at]);
            }
            LifecycleEvent::BrownoutEnd { at } => {
                out.push_str("be");
                fields(out, &[*at]);
            }
            LifecycleEvent::CoreDone { core, at } => {
                out.push_str("cd");
                fields(out, &[*core, *at]);
            }
            LifecycleEvent::RunEnd { at } => {
                out.push_str("re");
                fields(out, &[*at]);
            }
        }
    }

    /// Parses one wire line. Returns `None` on any malformation (unknown
    /// kind, wrong field count, non-integer field) — log readers treat
    /// that as a torn tail, never an error to unwrap.
    ///
    /// Fields are separated by any run of ASCII whitespace, and each
    /// numeric field is whatever `u64::from_str` accepts (so a leading
    /// `+` parses), range-checked for narrower fields.
    pub fn decode(line: &str) -> Option<LifecycleEvent> {
        let mut t = Tokens(line.split_ascii_whitespace());
        let ev = match t.word()? {
            "rs" => LifecycleEvent::RunStart {
                cores: t.small()?,
                instructions_per_core: t.num()?,
                chips: t.small()?,
                banks: t.small()?,
                total_lines: t.num()?,
                cells_per_chip_per_line: t.num()?,
                seed: t.num()?,
            },
            "ss" => LifecycleEvent::StepSnapshot {
                at: t.num()?,
                bank_mask: t.num()?,
                burst: t.flag()?,
                wrq: t.num()?,
                rdq: t.num()?,
            },
            "ta" => LifecycleEvent::TimeAdvance {
                from: t.num()?,
                to: t.num()?,
                burst: t.flag()?,
                writing: t.flag()?,
                brownout: t.flag()?,
                degraded: t.flag()?,
            },
            "wc" => LifecycleEvent::WriteCreated {
                id: t.num()?,
                line: t.num()?,
                bank: t.small()?,
                at: t.num()?,
                rounds: t.num()?,
                degraded: t.flag()?,
            },
            "wx" => LifecycleEvent::WriteCoalesced {
                old_id: t.num()?,
                new_id: t.num()?,
                line: t.num()?,
                at: t.num()?,
            },
            "wa" => LifecycleEvent::WriteAdmitted {
                id: t.num()?,
                bank: t.small()?,
                at: t.num()?,
                queue_delay: t.num()?,
            },
            "st" => LifecycleEvent::Stage {
                id: t.num()?,
                bank: t.small()?,
                at: t.num()?,
                from: stage_from_code(t.word()?)?,
                to: stage_from_code(t.word()?)?,
            },
            "sd" => LifecycleEvent::SchemeDecision {
                hook: SchemeHook::from_code(t.word()?)?,
                action: t.small()?,
                id: t.num()?,
                bank: t.small()?,
                at: t.num()?,
            },
            "pw" => {
                let id = t.num()?;
                let op = PowerOp::from_code(t.word()?)?;
                let ok = t.flag()?;
                let at = t.num()?;
                let mut stats = [0u64; 9];
                for slot in &mut stats {
                    *slot = t.num()?;
                }
                LifecycleEvent::Power { id, op, ok, at, stats, audit: t.num()? }
            }
            "ri" => LifecycleEvent::ReadIssued {
                core: t.num()?,
                bank: t.small()?,
                at: t.num()?,
                latency: t.num()?,
                scrub: t.flag()?,
            },
            "rd" => LifecycleEvent::ReadDone { bank: t.small()?, at: t.num()?, scrub: t.flag()? },
            "rc" => {
                let id = t.num()?;
                let line_addr = t.num()?;
                let bank = t.small()?;
                let at = t.num()?;
                let cells = t.num()?;
                let truncated = t.flag()?;
                let final_round = t.flag()?;
                let n: usize = t.small()?;
                if n > 1 << 16 {
                    return None; // implausible chip count: refuse the allocation
                }
                let per_chip = (0..n).map(|_| t.small()).collect::<Option<Vec<u32>>>()?;
                LifecycleEvent::RoundClosed {
                    id,
                    line: line_addr,
                    bank,
                    at,
                    cells,
                    truncated,
                    final_round,
                    per_chip,
                }
            }
            "sm" => LifecycleEvent::StuckMarked { lines: t.num()?, at: t.num()? },
            "vf" => LifecycleEvent::VerifyFailed {
                id: t.num()?,
                line: t.num()?,
                at: t.num()?,
                remapped: t.flag()?,
                retries: t.num()?,
            },
            "wt" => {
                LifecycleEvent::WatchdogTripped { id: t.num()?, bank: t.small()?, at: t.num()? }
            }
            "bs" => LifecycleEvent::BrownoutStart { at: t.num()? },
            "be" => LifecycleEvent::BrownoutEnd { at: t.num()? },
            "cd" => LifecycleEvent::CoreDone { core: t.num()?, at: t.num()? },
            "re" => LifecycleEvent::RunEnd { at: t.num()? },
            _ => return None,
        };
        // Reject trailing junk: an event line is exactly its fields.
        t.word().is_none().then_some(ev)
    }
}

/// Appends `v` in decimal to `out`, without allocating.
pub(crate) fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// The wire decoder's tokenizer: one pass over whitespace-separated
/// fields.
struct Tokens<'a>(std::str::SplitAsciiWhitespace<'a>);

impl<'a> Tokens<'a> {
    fn word(&mut self) -> Option<&'a str> {
        self.0.next()
    }

    fn num(&mut self) -> Option<u64> {
        self.word()?.parse().ok()
    }

    /// A numeric field that must fit a narrower integer type.
    fn small<T: TryFrom<u64>>(&mut self) -> Option<T> {
        T::try_from(self.num()?).ok()
    }

    /// A boolean field: any nonzero number is true.
    fn flag(&mut self) -> Option<bool> {
        Some(self.num()? != 0)
    }
}

impl fmt::Display for LifecycleEvent {
    /// Human-readable one-liner (the lineage/breakpoint rendering).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LifecycleEvent::RunStart { cores, banks, chips, seed, .. } => write!(
                f,
                "run-start: {cores} cores, {banks} banks, {chips} chips, seed {seed}"
            ),
            LifecycleEvent::StepSnapshot { at, wrq, rdq, burst, .. } => write!(
                f,
                "@{at} step: wrq={wrq} rdq={rdq}{}",
                if *burst { " BURST" } else { "" }
            ),
            LifecycleEvent::TimeAdvance { from, to, .. } => {
                write!(f, "@{from} time advances to {to}")
            }
            LifecycleEvent::WriteCreated { id, line, bank, at, rounds, degraded } => write!(
                f,
                "@{at} write #{id} created: line {line} bank {bank}, {rounds} round(s){}",
                if *degraded { " DEGRADED(SLC)" } else { "" }
            ),
            LifecycleEvent::WriteCoalesced { old_id, new_id, line, at } => {
                write!(f, "@{at} write #{old_id} coalesced into #{new_id} (line {line})")
            }
            LifecycleEvent::WriteAdmitted { id, bank, at, queue_delay } => write!(
                f,
                "@{at} write #{id} admitted to bank {bank} after {queue_delay} queued cycles"
            ),
            LifecycleEvent::Stage { id, bank, at, from, to } => {
                write!(f, "@{at} write #{id} bank {bank}: {from:?} -> {to:?}")
            }
            LifecycleEvent::SchemeDecision { hook, action, id, bank, at } => write!(
                f,
                "@{at} scheme {hook:?} hook on bank {bank} (write #{id}): action {action}"
            ),
            LifecycleEvent::Power { id, op, ok, at, .. } => write!(
                f,
                "@{at} power {op:?} for write #{id}: {}",
                if *ok { "granted" } else { "refused" }
            ),
            LifecycleEvent::ReadIssued { core, bank, at, latency, scrub } => write!(
                f,
                "@{at} {} issued to bank {bank} (core {core}, latency {latency})",
                if *scrub { "scrub read" } else { "read" }
            ),
            LifecycleEvent::ReadDone { bank, at, scrub } => write!(
                f,
                "@{at} {} done on bank {bank}",
                if *scrub { "scrub read" } else { "read" }
            ),
            LifecycleEvent::RoundClosed { id, at, cells, truncated, final_round, .. } => write!(
                f,
                "@{at} write #{id} round closed: {cells} cells{}{}",
                if *truncated { ", truncated" } else { "" },
                if *final_round { " (write complete)" } else { "" }
            ),
            LifecycleEvent::StuckMarked { lines, at } => {
                write!(f, "@{at} {lines} line(s) marked stuck-at")
            }
            LifecycleEvent::VerifyFailed { id, line, at, remapped, retries } => write!(
                f,
                "@{at} write #{id} verify FAILED on line {line}: {}",
                if *remapped {
                    "remapped to spare, SLC rewrite".to_string()
                } else {
                    format!("retry {retries}")
                }
            ),
            LifecycleEvent::WatchdogTripped { id, bank, at } => {
                write!(f, "@{at} watchdog force-closed write #{id} on bank {bank}")
            }
            LifecycleEvent::BrownoutStart { at } => write!(f, "@{at} brownout window begins"),
            LifecycleEvent::BrownoutEnd { at } => write!(f, "@{at} brownout window ends"),
            LifecycleEvent::CoreDone { core, at } => {
                write!(f, "@{at} core {core} retired its budget")
            }
            LifecycleEvent::RunEnd { at } => write!(f, "@{at} run complete"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::scheme::WriteStage::*;

    const M: u64 = u64::MAX;

    /// Every variant, with `0` and `u64::MAX` fields, an empty and a
    /// multi-chip `per_chip`, and every stage, hook and power-op code,
    /// each paired with its exact wire line. The lines pin the format:
    /// a change to the encoder's bytes fails here, not only a change
    /// that breaks the round trip.
    fn wire_vectors() -> Vec<(LifecycleEvent, &'static str)> {
        vec![
            (
                LifecycleEvent::RunStart {
                    cores: 255,
                    instructions_per_core: M,
                    chips: 0,
                    banks: 8,
                    total_lines: 0,
                    cells_per_chip_per_line: 256,
                    seed: M,
                },
                "rs 255 18446744073709551615 0 8 0 256 18446744073709551615",
            ),
            (
                LifecycleEvent::StepSnapshot { at: 0, bank_mask: M, burst: true, wrq: 0, rdq: M },
                "ss 0 18446744073709551615 1 0 18446744073709551615",
            ),
            (
                LifecycleEvent::TimeAdvance {
                    from: 0,
                    to: M,
                    burst: true,
                    writing: false,
                    brownout: true,
                    degraded: false,
                },
                "ta 0 18446744073709551615 1 0 1 0",
            ),
            (
                LifecycleEvent::TimeAdvance {
                    from: 7,
                    to: 8,
                    burst: false,
                    writing: true,
                    brownout: false,
                    degraded: true,
                },
                "ta 7 8 0 1 0 1",
            ),
            (
                LifecycleEvent::WriteCreated {
                    id: M,
                    line: 0,
                    bank: 255,
                    at: 10,
                    rounds: 0,
                    degraded: true,
                },
                "wc 18446744073709551615 0 255 10 0 1",
            ),
            (
                LifecycleEvent::WriteCoalesced { old_id: 0, new_id: M, line: 55, at: 11 },
                "wx 0 18446744073709551615 55 11",
            ),
            (
                LifecycleEvent::WriteAdmitted { id: 7, bank: 0, at: M, queue_delay: 0 },
                "wa 7 0 18446744073709551615 0",
            ),
            (
                LifecycleEvent::Stage { id: 7, bank: 2, at: 13, from: Queued, to: PreRead },
                "st 7 2 13 qu pr",
            ),
            (
                LifecycleEvent::Stage { id: 0, bank: 0, at: 0, from: Iterating, to: TokenStalled },
                "st 0 0 0 it ts",
            ),
            (
                LifecycleEvent::Stage { id: M, bank: 255, at: M, from: Paused, to: RoundPending },
                "st 18446744073709551615 255 18446744073709551615 pa rp",
            ),
            (
                LifecycleEvent::Stage { id: 1, bank: 1, at: 1, from: Backoff, to: Draining },
                "st 1 1 1 bo dr",
            ),
            (
                LifecycleEvent::Stage { id: 2, bank: 3, at: 4, from: Draining, to: Done },
                "st 2 3 4 dr dn",
            ),
            (
                LifecycleEvent::SchemeDecision {
                    hook: SchemeHook::Admit,
                    action: 0,
                    id: 0,
                    bank: 0,
                    at: 0,
                },
                "sd a 0 0 0 0",
            ),
            (
                LifecycleEvent::SchemeDecision {
                    hook: SchemeHook::Iteration,
                    action: 1,
                    id: 7,
                    bank: 2,
                    at: 14,
                },
                "sd i 1 7 2 14",
            ),
            (
                LifecycleEvent::SchemeDecision {
                    hook: SchemeHook::ReadArrival,
                    action: 2,
                    id: M,
                    bank: 7,
                    at: M,
                },
                "sd r 2 18446744073709551615 7 18446744073709551615",
            ),
            (
                LifecycleEvent::SchemeDecision {
                    hook: SchemeHook::Release,
                    action: 255,
                    id: 9,
                    bank: 255,
                    at: 15,
                },
                "sd l 255 9 255 15",
            ),
            (
                LifecycleEvent::Power {
                    id: 7,
                    op: PowerOp::Admit,
                    ok: false,
                    at: 15,
                    stats: [1, 2, 3, 4, 5, 6, 7, 8, 9],
                    audit: 1,
                },
                "pw 7 a 0 15 1 2 3 4 5 6 7 8 9 1",
            ),
            (
                LifecycleEvent::Power {
                    id: M,
                    op: PowerOp::Advance,
                    ok: true,
                    at: M,
                    stats: [M; 9],
                    audit: M,
                },
                "pw 18446744073709551615 v 1 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615 18446744073709551615",
            ),
            (
                LifecycleEvent::Power {
                    id: 0,
                    op: PowerOp::Release,
                    ok: true,
                    at: 0,
                    stats: [0; 9],
                    audit: 0,
                },
                "pw 0 r 1 0 0 0 0 0 0 0 0 0 0 0",
            ),
            (
                LifecycleEvent::Power {
                    id: 0,
                    op: PowerOp::BrownoutBegin,
                    ok: true,
                    at: 20,
                    stats: [0, M, 0, M, 0, M, 0, M, 0],
                    audit: 3,
                },
                "pw 0 b 1 20 0 18446744073709551615 0 18446744073709551615 0 18446744073709551615 0 18446744073709551615 0 3",
            ),
            (
                LifecycleEvent::Power {
                    id: 0,
                    op: PowerOp::BrownoutEnd,
                    ok: true,
                    at: 30,
                    stats: [10, 0, 20, 0, 30, 0, 40, 0, 50],
                    audit: 0,
                },
                "pw 0 e 1 30 10 0 20 0 30 0 40 0 50 0",
            ),
            (
                LifecycleEvent::ReadIssued { core: 3, bank: 1, at: 16, latency: 120, scrub: false },
                "ri 3 1 16 120 0",
            ),
            (
                LifecycleEvent::ReadIssued { core: 0, bank: 255, at: M, latency: M, scrub: true },
                "ri 0 255 18446744073709551615 18446744073709551615 1",
            ),
            (LifecycleEvent::ReadDone { bank: 1, at: 17, scrub: true }, "rd 1 17 1"),
            (
                LifecycleEvent::ReadDone { bank: 0, at: M, scrub: false },
                "rd 0 18446744073709551615 0",
            ),
            (
                LifecycleEvent::RoundClosed {
                    id: 7,
                    line: 1234,
                    bank: 2,
                    at: 18,
                    cells: 0,
                    truncated: false,
                    final_round: true,
                    per_chip: vec![],
                },
                "rc 7 1234 2 18 0 0 1 0",
            ),
            (
                LifecycleEvent::RoundClosed {
                    id: M,
                    line: M,
                    bank: 255,
                    at: M,
                    cells: M,
                    truncated: true,
                    final_round: false,
                    per_chip: vec![12, 0, 84, u32::MAX],
                },
                "rc 18446744073709551615 18446744073709551615 255 18446744073709551615 18446744073709551615 1 0 4 12 0 84 4294967295",
            ),
            (LifecycleEvent::StuckMarked { lines: 0, at: M }, "sm 0 18446744073709551615"),
            (
                LifecycleEvent::VerifyFailed {
                    id: 7,
                    line: 1234,
                    at: 20,
                    remapped: true,
                    retries: 0,
                },
                "vf 7 1234 20 1 0",
            ),
            (
                LifecycleEvent::VerifyFailed { id: 0, line: M, at: 0, remapped: false, retries: M },
                "vf 0 18446744073709551615 0 0 18446744073709551615",
            ),
            (
                LifecycleEvent::WatchdogTripped { id: M, bank: 0, at: 21 },
                "wt 18446744073709551615 0 21",
            ),
            (LifecycleEvent::BrownoutStart { at: 0 }, "bs 0"),
            (LifecycleEvent::BrownoutEnd { at: M }, "be 18446744073709551615"),
            (LifecycleEvent::CoreDone { core: 0, at: M }, "cd 0 18446744073709551615"),
            (LifecycleEvent::RunEnd { at: 25 }, "re 25"),
        ]
    }

    #[test]
    fn wire_round_trip_is_exact() {
        for (ev, line) in wire_vectors() {
            assert_eq!(ev.encode(), line);
            let mut appended = String::from("prefix|");
            ev.encode_into(&mut appended);
            assert_eq!(appended.strip_prefix("prefix|"), Some(line));
            assert_eq!(LifecycleEvent::decode(line), Some(ev), "{line}");
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert_eq!(LifecycleEvent::decode(""), None);
        assert_eq!(LifecycleEvent::decode("zz 1 2"), None);
        assert_eq!(LifecycleEvent::decode("ss 1 2 3"), None, "missing fields");
        assert_eq!(LifecycleEvent::decode("ss 1 2 3 4 5 6"), None, "trailing junk");
        assert_eq!(LifecycleEvent::decode("st 1 2 3 xx it"), None, "bad stage code");
        assert_eq!(LifecycleEvent::decode("wc 1 2 999 4 5 0"), None, "bank overflows u8");
        assert_eq!(LifecycleEvent::decode("re 100000000000000000000"), None, "21 digits");
        assert_eq!(LifecycleEvent::decode("re 18446744073709551616"), None, "u64::MAX + 1");
        assert_eq!(LifecycleEvent::decode("re -1"), None, "sign");
        assert_eq!(LifecycleEvent::decode("rc 1 2 3 4 5 0 0 65537"), None, "chip count");
        assert_eq!(LifecycleEvent::decode("rc 1 2 3 4 5 0 0 1 4294967296"), None, "u32 chip");
        for junk in [
            "st 7 2 13 qu pr x",
            "sd a 0 0 0 0 0",
            "pw 7 a 0 15 1 2 3 4 5 6 7 8 9 1 1",
            "rc 7 1234 2 18 0 0 1 0 5",
            "rc 7 1234 2 18 0 0 1 1 5 6",
        ] {
            assert_eq!(LifecycleEvent::decode(junk), None, "trailing junk: {junk}");
        }

        // Accepted beyond the encoder's own output. The set of accepted
        // lines is part of the format, so these stay accepted.
        let snapshot =
            LifecycleEvent::StepSnapshot { at: 1, bank_mask: 2, burst: true, wrq: 3, rdq: 4 };
        assert_eq!(LifecycleEvent::decode("ss  1\t2 1   3\t\t4"), Some(snapshot.clone()));
        assert_eq!(LifecycleEvent::decode(" ss 1 2 1 3 4 "), Some(snapshot));
        assert_eq!(LifecycleEvent::decode("re +25"), Some(LifecycleEvent::RunEnd { at: 25 }));
        assert_eq!(LifecycleEvent::decode("re 0025"), Some(LifecycleEvent::RunEnd { at: 25 }));
        assert_eq!(
            LifecycleEvent::decode("rd 0 5 7"),
            Some(LifecycleEvent::ReadDone { bank: 0, at: 5, scrub: true }),
            "any nonzero flag is true"
        );
    }

    /// A field value: mostly uniform over all of `u64`, with the edges
    /// and short numbers drawn often enough to matter.
    fn field() -> impl Strategy<Value = u64> {
        prop_oneof![any::<u64>(), 0u64..1000, Just(0), Just(M)]
    }

    const STAGES: [WriteStage; 9] =
        [Queued, PreRead, Iterating, TokenStalled, Paused, RoundPending, Backoff, Draining, Done];
    const HOOKS: [SchemeHook; 4] =
        [SchemeHook::Admit, SchemeHook::Iteration, SchemeHook::ReadArrival, SchemeHook::Release];
    const OPS: [PowerOp; 5] = [
        PowerOp::Admit,
        PowerOp::Advance,
        PowerOp::Release,
        PowerOp::BrownoutBegin,
        PowerOp::BrownoutEnd,
    ];

    /// Builds an event of variant `kind` from drawn fields: `f` for `u64`s,
    /// `b` for `u8`s and code picks, `flags` for booleans.
    fn event_of(
        kind: usize,
        f: &[u64],
        b: &[u8],
        flags: &[bool],
        per_chip: Vec<u32>,
    ) -> LifecycleEvent {
        let pick = |i: usize, n: usize| usize::from(b[i]) % n;
        match kind {
            0 => LifecycleEvent::RunStart {
                cores: b[0],
                instructions_per_core: f[0],
                chips: b[1],
                banks: b[2],
                total_lines: f[1],
                cells_per_chip_per_line: f[2],
                seed: f[3],
            },
            1 => LifecycleEvent::StepSnapshot {
                at: f[0],
                bank_mask: f[1],
                burst: flags[0],
                wrq: f[2],
                rdq: f[3],
            },
            2 => LifecycleEvent::TimeAdvance {
                from: f[0],
                to: f[1],
                burst: flags[0],
                writing: flags[1],
                brownout: flags[2],
                degraded: flags[3],
            },
            3 => LifecycleEvent::WriteCreated {
                id: f[0],
                line: f[1],
                bank: b[0],
                at: f[2],
                rounds: f[3],
                degraded: flags[0],
            },
            4 => {
                LifecycleEvent::WriteCoalesced { old_id: f[0], new_id: f[1], line: f[2], at: f[3] }
            }
            5 => {
                LifecycleEvent::WriteAdmitted { id: f[0], bank: b[0], at: f[1], queue_delay: f[2] }
            }
            6 => LifecycleEvent::Stage {
                id: f[0],
                bank: b[0],
                at: f[1],
                from: STAGES[pick(1, 9)],
                to: STAGES[pick(2, 9)],
            },
            7 => LifecycleEvent::SchemeDecision {
                hook: HOOKS[pick(0, 4)],
                action: b[1],
                id: f[0],
                bank: b[2],
                at: f[1],
            },
            8 => LifecycleEvent::Power {
                id: f[0],
                op: OPS[pick(0, 5)],
                ok: flags[0],
                at: f[1],
                stats: [f[2], f[3], f[4], f[5], f[6], f[7], f[8], f[9], f[10]],
                audit: f[11],
            },
            9 => LifecycleEvent::ReadIssued {
                core: f[0],
                bank: b[0],
                at: f[1],
                latency: f[2],
                scrub: flags[0],
            },
            10 => LifecycleEvent::ReadDone { bank: b[0], at: f[0], scrub: flags[0] },
            11 => LifecycleEvent::RoundClosed {
                id: f[0],
                line: f[1],
                bank: b[0],
                at: f[2],
                cells: f[3],
                truncated: flags[0],
                final_round: flags[1],
                per_chip,
            },
            12 => LifecycleEvent::StuckMarked { lines: f[0], at: f[1] },
            13 => LifecycleEvent::VerifyFailed {
                id: f[0],
                line: f[1],
                at: f[2],
                remapped: flags[0],
                retries: f[3],
            },
            14 => LifecycleEvent::WatchdogTripped { id: f[0], bank: b[0], at: f[1] },
            15 => LifecycleEvent::BrownoutStart { at: f[0] },
            16 => LifecycleEvent::BrownoutEnd { at: f[0] },
            17 => LifecycleEvent::CoreDone { core: f[0], at: f[1] },
            _ => LifecycleEvent::RunEnd { at: f[0] },
        }
    }

    prop_compose! {
        fn arb_event()(
            kind in 0usize..19,
            f in prop::collection::vec(field(), 16),
            b in prop::collection::vec(any::<u8>(), 4),
            flags in prop::collection::vec(any::<bool>(), 4),
            per_chip in prop::collection::vec(any::<u32>(), 0..10),
        ) -> LifecycleEvent {
            event_of(kind, &f, &b, &flags, per_chip)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn arbitrary_events_round_trip(ev in arb_event()) {
            let line = ev.encode();
            prop_assert!(!line.contains('\n'), "single line: {}", line);
            prop_assert_eq!(LifecycleEvent::decode(&line), Some(ev));
        }
    }

    #[test]
    fn stage_codes_round_trip() {
        for s in STAGES {
            assert_eq!(stage_from_code(stage_code(s)), Some(s));
        }
        assert_eq!(stage_from_code("zz"), None);
    }

    #[test]
    fn display_is_single_line() {
        for (ev, _) in wire_vectors() {
            let text = ev.to_string();
            assert!(!text.is_empty() && !text.contains('\n'), "{text}");
        }
    }
}
