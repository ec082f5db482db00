//! The durable `fpbi1` event log: where a recorded run lives on disk.
//!
//! Same discipline as the sweep journal ([`crate::journal`]): a text
//! file of CRC-framed single-line records, append-only, fsync'd in
//! batches, refusing to clobber, tolerant of a torn tail. The format:
//!
//! ```text
//! fpbi1 <crc32-8hex> h <fingerprint-16hex> <meta…>
//! fpbi1 <crc32-8hex> e <seq> <event-wire-form…>
//! fpbi1 <crc32-8hex> z <count>
//! ```
//!
//! The header binds the log to one run description (`meta`, typically
//! `workload scheme instructions seed`); each `e` line carries one
//! [`LifecycleEvent`] in its exact wire form with a strictly increasing
//! sequence number; the `z` trailer marks a clean close. A log without
//! its trailer (crash mid-record) is still readable — every CRC-valid
//! prefix replays — but reports `complete = false` so callers that need
//! the whole run (`--require-complete`) can refuse it.
//!
//! Unlike the journal's per-line fsync (sweep points are minutes of
//! work), events are microseconds of work, so the writer batches:
//! appends buffer in memory and hit the disk every
//! [`EventLogWriter::SYNC_BATCH`] events and at close.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use crate::journal::{fingerprint64, frame_into, framed_lines, unframe};
use crate::metrics::wear_tracker;

use super::event::{push_decimal, LifecycleEvent};
use super::EventSink;

/// Magic tag opening every event-log line; bump the digit on any format
/// change so old readers fail loudly instead of misparsing.
pub const EVENT_LOG_MAGIC: &str = "fpbi1";

/// Why an event log could not be created, written, or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InspectError {
    /// An underlying filesystem operation failed.
    Io {
        /// Operation being attempted (e.g. `create`, `append`, `fsync`).
        op: &'static str,
        /// Path involved.
        path: PathBuf,
        /// Rendered OS error.
        detail: String,
    },
    /// `create` refuses to clobber an existing file.
    AlreadyExists(PathBuf),
    /// The file has no valid header line (empty, corrupt from byte 0, or
    /// not an event log at all).
    MissingHeader(PathBuf),
    /// The log has no clean-close trailer (or the trailer count
    /// disagrees) and the caller demanded a complete run.
    Incomplete {
        /// The offending log.
        path: PathBuf,
        /// Events recovered before the tail.
        events: usize,
    },
    /// Header meta must be single-line (the log is line-framed).
    EmbeddedNewline,
}

impl fmt::Display for InspectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InspectError::Io { op, path, detail } => {
                write!(f, "event log {op} failed for {}: {detail}", path.display())
            }
            InspectError::AlreadyExists(p) => write!(
                f,
                "event log {} already exists (delete it explicitly to re-record)",
                p.display()
            ),
            InspectError::MissingHeader(p) => {
                write!(f, "{} is not an event log (no valid header line)", p.display())
            }
            InspectError::Incomplete { path, events } => write!(
                f,
                "event log {} is incomplete: {events} event(s) recovered but no clean-close \
                 trailer (the recording run was killed mid-write)",
                path.display()
            ),
            InspectError::EmbeddedNewline => {
                write!(f, "event log meta must not contain newlines")
            }
        }
    }
}

impl std::error::Error for InspectError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> InspectError {
    InspectError::Io { op, path: path.to_path_buf(), detail: e.to_string() }
}

/// An open event log accepting batched appends.
#[derive(Debug)]
pub struct EventLogWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    buf: String,
    /// Scratch for one event line's body, reused across appends.
    body: String,
    pending: u64,
}

impl EventLogWriter {
    /// Events buffered between fsyncs. Large enough to amortize the
    /// sync, small enough that a crash loses under a millisecond of
    /// simulated history.
    pub const SYNC_BATCH: u64 = 1024;

    /// Creates a fresh log (refusing to clobber), writes and syncs the
    /// header — plus a best-effort sync of the parent directory so the
    /// *name* survives a crash too. The header fingerprint is
    /// [`fingerprint64`] of `meta`.
    ///
    /// # Errors
    ///
    /// [`InspectError::AlreadyExists`] if the path exists,
    /// [`InspectError::EmbeddedNewline`] for a multi-line meta, or
    /// [`InspectError::Io`] for filesystem failures.
    pub fn create(path: &Path, meta: &str) -> Result<EventLogWriter, InspectError> {
        if meta.contains('\n') {
            return Err(InspectError::EmbeddedNewline);
        }
        let mut opts = OpenOptions::new();
        opts.write(true).create_new(true);
        let file = opts.open(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                InspectError::AlreadyExists(path.to_path_buf())
            } else {
                io_err("create", path, &e)
            }
        })?;
        let mut w = EventLogWriter {
            file,
            path: path.to_path_buf(),
            seq: 0,
            buf: String::new(),
            body: String::new(),
            pending: 0,
        };
        let header = format!("h {:016x} {meta}", fingerprint64(meta));
        frame_into(&mut w.buf, EVENT_LOG_MAGIC, &header);
        w.flush_sync()?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(w)
    }

    /// Appends one event (buffered; synced every
    /// [`EventLogWriter::SYNC_BATCH`] events).
    ///
    /// # Errors
    ///
    /// [`InspectError::Io`] if the batched flush fails.
    pub fn append(&mut self, ev: &LifecycleEvent) -> Result<(), InspectError> {
        self.body.clear();
        self.body.push_str("e ");
        push_decimal(&mut self.body, self.seq);
        self.body.push(' ');
        ev.encode_into(&mut self.body);
        frame_into(&mut self.buf, EVENT_LOG_MAGIC, &self.body);
        self.seq += 1;
        self.pending += 1;
        if self.pending >= Self::SYNC_BATCH {
            self.flush_sync()?;
        }
        Ok(())
    }

    /// Events appended so far.
    pub fn events_written(&self) -> u64 {
        self.seq
    }

    /// Writes the clean-close trailer and syncs everything; when this
    /// returns `Ok`, the log replays completely after any subsequent
    /// kill. Returns the event count.
    ///
    /// # Errors
    ///
    /// [`InspectError::Io`] if the final write or sync fails.
    pub fn finish(mut self) -> Result<u64, InspectError> {
        frame_into(&mut self.buf, EVENT_LOG_MAGIC, &format!("z {}", self.seq));
        self.flush_sync()?;
        Ok(self.seq)
    }

    fn flush_sync(&mut self) -> Result<(), InspectError> {
        self.file
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.buf.clear();
        self.pending = 0;
        self.file.sync_data().map_err(|e| io_err("fsync", &self.path, &e))
    }
}

/// Everything recovered from reading an event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// The header's free-form run description.
    pub meta: String,
    /// [`fingerprint64`] of `meta`, as stored (a reader sanity check).
    pub fingerprint: u64,
    /// Valid events in sequence order.
    pub events: Vec<LifecycleEvent>,
    /// True iff the clean-close trailer was found and its count matches.
    pub complete: bool,
    /// Complete-but-invalid lines dropped at the tail (plus one for an
    /// unterminated trailing fragment, if any).
    pub dropped_lines: usize,
}

/// Reads and validates an event log: header first, then events, with
/// the corrupt-tail policy of [`crate::journal`] — reading stops at the
/// first invalid line and everything before it is reported. A line is
/// invalid if its CRC, decode or sequence number is wrong, or if its
/// event breaks the run's geometry (see `fits_geometry`): replay must
/// never reach the metrics fold with a shape it cannot hold.
///
/// # Errors
///
/// [`InspectError::Io`] if the file cannot be read, or
/// [`InspectError::MissingHeader`] if line one is not a valid header.
pub fn read_event_log(path: &Path) -> Result<EventLog, InspectError> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| io_err("read", path, &e))?;
    let (mut lines, torn_tail) = framed_lines(&buf);
    let header = lines.next().and_then(|(l, _)| unframe(EVENT_LOG_MAGIC, l)).and_then(|body| {
        let rest = body.strip_prefix("h ")?;
        let (fp_hex, rest) = rest.split_at_checked(16)?;
        let fingerprint = u64::from_str_radix(fp_hex, 16).ok()?;
        let meta = rest.strip_prefix(' ').unwrap_or("").to_string();
        Some((fingerprint, meta))
    });
    let Some((fingerprint, meta)) = header else {
        return Err(InspectError::MissingHeader(path.to_path_buf()));
    };

    let mut events = Vec::new();
    let mut chips = None;
    let mut complete = false;
    let mut dropped = usize::from(torn_tail);
    while let Some((line, _)) = lines.next() {
        let parsed = unframe(EVENT_LOG_MAGIC, line).and_then(|body| {
            if let Some(rest) = body.strip_prefix("e ") {
                let (seq, payload) = rest.split_once(' ')?;
                // Sequence numbers are dense from 0: a gap or repeat
                // means the tail belongs to some other write attempt.
                if seq.parse::<u64>().ok()? != events.len() as u64 {
                    return None;
                }
                let ev = LifecycleEvent::decode(payload)?;
                fits_geometry(&ev, events.len(), &mut chips).then_some(Some(ev))
            } else if let Some(count) = body.strip_prefix("z ") {
                (count.parse::<u64>().ok()? == events.len() as u64).then_some(None)
            } else {
                None
            }
        });
        match parsed {
            Some(Some(ev)) if !complete => events.push(ev),
            Some(None) if !complete => complete = true,
            _ => {
                // First invalid line (or anything after a trailer):
                // everything from here is tail.
                dropped += 1 + lines.count();
                break;
            }
        }
    }
    Ok(EventLog { meta, fingerprint, events, complete, dropped_lines: dropped })
}

/// Whether `ev`, arriving as event `index`, is consistent with the run's
/// geometry so far. A `RunStart` must be event 0, and the only one, with
/// a geometry the endurance tracker accepts; it fixes the chip count.
/// Every `RoundClosed` must carry that many per-chip counts (without a
/// `RunStart`, the first `RoundClosed` fixes the count).
fn fits_geometry(ev: &LifecycleEvent, index: usize, chips: &mut Option<usize>) -> bool {
    match ev {
        LifecycleEvent::RunStart { chips: c, total_lines, cells_per_chip_per_line, .. } => {
            *chips = Some(usize::from(*c));
            index == 0 && wear_tracker(*total_lines, *c, *cells_per_chip_per_line).is_some()
        }
        LifecycleEvent::RoundClosed { per_chip, .. } => {
            per_chip.len() == *chips.get_or_insert(per_chip.len())
        }
        _ => true,
    }
}

/// An [`EventSink`] that streams events straight into an
/// [`EventLogWriter`]. The engine's sink contract is infallible, so I/O
/// failures are latched internally: the first error stops further
/// writes and is reported when the caller [`FileSink::finish`]es.
#[derive(Debug)]
pub struct FileSink {
    writer: Option<EventLogWriter>,
    error: Option<InspectError>,
}

impl FileSink {
    /// Opens a fresh log at `path` (see [`EventLogWriter::create`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EventLogWriter::create`] failures.
    pub fn create(path: &Path, meta: &str) -> Result<FileSink, InspectError> {
        Ok(FileSink { writer: Some(EventLogWriter::create(path, meta)?), error: None })
    }

    /// Closes the log cleanly, returning the event count — or the first
    /// error any append hit.
    ///
    /// # Errors
    ///
    /// The first latched append error, or the final flush's failure.
    pub fn finish(self) -> Result<u64, InspectError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.writer {
            Some(w) => w.finish(),
            None => Ok(0),
        }
    }
}

impl EventSink for FileSink {
    fn emit(&mut self, event: LifecycleEvent) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.append(&event) {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fpb-inspect-recorder-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::remove_file(&p).ok();
        p
    }

    fn sample_events() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::BrownoutStart { at: 10 },
            LifecycleEvent::StuckMarked { lines: 1, at: 12 },
            LifecycleEvent::BrownoutEnd { at: 20 },
            LifecycleEvent::RunEnd { at: 99 },
        ]
    }

    #[test]
    fn round_trip_create_append_read() {
        let path = tmp("round_trip.fpbi");
        let mut w = EventLogWriter::create(&path, "cop_m fpb 40000 1").unwrap();
        for ev in sample_events() {
            w.append(&ev).unwrap();
        }
        assert_eq!(w.events_written(), 4);
        assert_eq!(w.finish().unwrap(), 4);
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.meta, "cop_m fpb 40000 1");
        assert_eq!(log.fingerprint, fingerprint64("cop_m fpb 40000 1"));
        assert_eq!(log.events, sample_events());
        assert!(log.complete);
        assert_eq!(log.dropped_lines, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn log_bytes_are_pinned() {
        let path = tmp("pinned.fpbi");
        let mut w = EventLogWriter::create(&path, "cop_m fpb 40000 1").unwrap();
        let events = [
            LifecycleEvent::BrownoutStart { at: 10 },
            LifecycleEvent::StuckMarked { lines: 1, at: 12 },
            LifecycleEvent::RoundClosed {
                id: 7,
                line: 1234,
                bank: 2,
                at: 18,
                cells: 96,
                truncated: true,
                final_round: false,
                per_chip: vec![12, 0, 84],
            },
            LifecycleEvent::RunEnd { at: 99 },
        ];
        for ev in &events {
            w.append(ev).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "fpbi1 f922dab1 h 01594e16f23b2926 cop_m fpb 40000 1\n\
             fpbi1 e4f548d6 e 0 bs 10\n\
             fpbi1 131e48a1 e 1 sm 1 12\n\
             fpbi1 c3bcb717 e 2 rc 7 1234 2 18 96 1 0 3 12 0 84\n\
             fpbi1 718aff26 e 3 re 99\n\
             fpbi1 1217e483 z 4\n"
        );
        assert_eq!(read_event_log(&path).unwrap().events, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmp("no_clobber.fpbi");
        drop(EventLogWriter::create(&path, "m").unwrap());
        let err = EventLogWriter::create(&path, "m").unwrap_err();
        assert_eq!(err, InspectError::AlreadyExists(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_trailer_reads_incomplete() {
        let path = tmp("no_trailer.fpbi");
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        w.append(&LifecycleEvent::RunEnd { at: 5 }).unwrap();
        // Simulate a kill: flush the batch but never write the trailer.
        w.flush_sync().unwrap();
        drop(w);
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events.len(), 1);
        assert!(!log.complete);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn_tail.fpbi");
        let mut w = EventLogWriter::create(&path, "m").unwrap();
        for ev in sample_events() {
            w.append(&ev).unwrap();
        }
        w.finish().unwrap();
        // Corrupt the trailer line: flip a payload byte mid-line.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events, sample_events());
        assert!(!log.complete, "trailer was destroyed");
        assert_eq!(log.dropped_lines, 1);
        // Truncate mid-line: unterminated fragment also drops cleanly.
        let cut = n - 10;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let log = read_event_log(&path).unwrap();
        assert!(!log.complete);
        assert!(log.dropped_lines >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_order_sequence_stops_the_read() {
        let path = tmp("bad_seq.fpbi");
        let mut text = String::new();
        frame_into(&mut text, EVENT_LOG_MAGIC, &format!("h {:016x} m", fingerprint64("m")));
        frame_into(&mut text, EVENT_LOG_MAGIC, "e 0 re 1");
        // Valid CRC, wrong sequence number: belongs to another attempt.
        frame_into(&mut text, EVENT_LOG_MAGIC, "e 7 re 2");
        std::fs::write(&path, text).unwrap();
        let log = read_event_log(&path).unwrap();
        assert_eq!(log.events.len(), 1);
        assert!(!log.complete);
        assert_eq!(log.dropped_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    fn run_start(chips: u8, total_lines: u64, cells_per_chip_per_line: u64) -> LifecycleEvent {
        LifecycleEvent::RunStart {
            cores: 8,
            instructions_per_core: 1000,
            chips,
            banks: 8,
            total_lines,
            cells_per_chip_per_line,
            seed: 1,
        }
    }

    fn round_closed(chips: usize) -> LifecycleEvent {
        LifecycleEvent::RoundClosed {
            id: 1,
            line: 5,
            bank: 5,
            at: 40,
            cells: 0,
            truncated: false,
            final_round: true,
            per_chip: vec![0; chips],
        }
    }

    /// Writes a CRC-valid, correctly sequenced, cleanly closed log of
    /// `events` — the damage under test is in the events alone — and
    /// reads it back.
    fn read_framed(name: &str, events: &[LifecycleEvent]) -> EventLog {
        let path = tmp(name);
        let mut text = String::new();
        frame_into(&mut text, EVENT_LOG_MAGIC, &format!("h {:016x} m", fingerprint64("m")));
        for (seq, ev) in events.iter().enumerate() {
            frame_into(&mut text, EVENT_LOG_MAGIC, &format!("e {seq} {}", ev.encode()));
        }
        frame_into(&mut text, EVENT_LOG_MAGIC, &format!("z {}", events.len()));
        std::fs::write(&path, text).unwrap();
        let log = read_event_log(&path).unwrap();
        std::fs::remove_file(&path).ok();
        log
    }

    #[test]
    fn consistent_geometry_reads_complete() {
        let events = [run_start(8, 1 << 20, 128), round_closed(8), round_closed(8)];
        let log = read_framed("geometry_ok.fpbi", &events);
        assert_eq!(log.events, events);
        assert!(log.complete);
        // Without a RunStart the first round fixes the chip count.
        let bare = [round_closed(3), round_closed(3)];
        assert!(read_framed("geometry_bare.fpbi", &bare).complete);
    }

    #[test]
    fn round_with_wrong_chip_count_stops_the_read() {
        let log = read_framed(
            "geometry_chips.fpbi",
            &[run_start(8, 1 << 20, 128), round_closed(8), round_closed(3), round_closed(8)],
        );
        assert_eq!(log.events, [run_start(8, 1 << 20, 128), round_closed(8)]);
        assert!(!log.complete);
        assert_eq!(log.dropped_lines, 3, "the bad round, the round after it, the trailer");
        let bare = read_framed("geometry_bare_chips.fpbi", &[round_closed(3), round_closed(8)]);
        assert_eq!(bare.events, [round_closed(3)]);
        assert!(!bare.complete);
    }

    #[test]
    fn run_start_with_zero_total_lines_stops_the_read() {
        let log = read_framed("geometry_lines.fpbi", &[run_start(8, 0, 128), round_closed(8)]);
        assert!(log.events.is_empty());
        assert!(!log.complete);
        // Fewer lines than wear regions is as unusable as none.
        let log = read_framed("geometry_lines63.fpbi", &[run_start(8, 63, 128)]);
        assert!(log.events.is_empty() && !log.complete);
        assert!(read_framed("geometry_lines64.fpbi", &[run_start(8, 64, 128)]).complete);
    }

    #[test]
    fn run_start_with_zero_chips_stops_the_read() {
        let log = read_framed("geometry_no_chips.fpbi", &[run_start(0, 1 << 20, 128)]);
        assert!(log.events.is_empty());
        assert!(!log.complete);
    }

    #[test]
    fn run_start_with_zero_cells_per_chip_stops_the_read() {
        let log = read_framed("geometry_no_cells.fpbi", &[run_start(8, 1 << 20, 0)]);
        assert!(log.events.is_empty());
        assert!(!log.complete);
    }

    #[test]
    fn run_start_past_event_zero_stops_the_read() {
        let rs = run_start(8, 1 << 20, 128);
        let log = read_framed("geometry_second_rs.fpbi", &[rs.clone(), rs.clone()]);
        assert_eq!(log.events, std::slice::from_ref(&rs));
        assert!(!log.complete);
        let late = read_framed("geometry_late_rs.fpbi", &[round_closed(8), rs]);
        assert_eq!(late.events, [round_closed(8)]);
        assert!(!late.complete);
    }

    #[test]
    fn not_a_log_is_a_typed_error() {
        let path = tmp("not_a_log.fpbi");
        std::fs::write(&path, "hello world\n").unwrap();
        assert_eq!(
            read_event_log(&path),
            Err(InspectError::MissingHeader(path.clone()))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sink_latches_errors_and_finishes() {
        let path = tmp("file_sink.fpbi");
        let mut sink = FileSink::create(&path, "m").unwrap();
        use super::super::EventSink as _;
        sink.emit(LifecycleEvent::RunEnd { at: 3 });
        assert_eq!(sink.finish().unwrap(), 1);
        let log = read_event_log(&path).unwrap();
        assert!(log.complete);
        assert_eq!(log.events.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
