//! A minimal worker pool for embarrassingly parallel simulation work.
//!
//! Sweep points and per-workload runs are independent, deterministic
//! computations, so the only thing a parallel driver must guarantee is
//! that results come back *in input order* regardless of which worker
//! finished first. This module provides exactly that on scoped threads —
//! no dependencies, no channels, no unsafe. Workers claim one item at a
//! time off a shared cursor.
//!
//! Sweeps do not run here: they run under [`crate::supervise`], which
//! adds quarantine, deadlines and cancellation, and which takes the
//! longest-first execution order that [`schedule_by_cost`] builds.
//!
//! Worker counts are clamped to the machine's available parallelism:
//! requesting `--jobs 4` on a 1-core container would otherwise
//! timeslice four threads over one core and run *slower* than serial
//! (measured 0.612x before the clamp; see DESIGN.md's threading-model
//! section).
//!
//! Panic handling: every worker item runs under `catch_unwind`, so a
//! panic is captured with the slot index and payload message attached
//! ([`WorkerPanic`]) instead of tearing the whole pool down anonymously.
//! [`try_parallel_map_indexed`] surfaces that as an error;
//! [`parallel_map_indexed`] keeps the original panicking contract but
//! the re-raised panic names the offending slot.

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: the machine's available parallelism, or 1
/// when that cannot be determined (e.g. restricted sandboxes).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker-thread count actually spawned for `jobs` requested jobs
/// over `items` items: never more threads than items (idle from birth)
/// and never more than the machine's logical cores (oversubscription —
/// timeslicing simulation threads over too few cores is strictly slower
/// than not spawning them).
pub fn effective_workers(jobs: usize, items: usize) -> usize {
    jobs.max(1).min(items.max(1)).min(default_jobs())
}

/// Builds an execution schedule from per-item cost estimates: item
/// indices stably sorted by descending cost, so the most expensive
/// items are claimed first (classic LPT-style list scheduling). Ties
/// keep input order, making the schedule deterministic.
pub fn schedule_by_cost(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// A worker item panicked: carries *which* input index failed and the
/// panic payload rendered as text, so a 400-point sweep failure reads
/// "slot 217 panicked: swept config invalid …" rather than an anonymous
/// unwind out of a scoped join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the input item whose closure call panicked.
    pub slot: usize,
    /// The panic payload (`&str` / `String` payloads verbatim, anything
    /// else a placeholder).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panicked at slot {}: {}", self.slot, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a panic payload as text: `&str` and `String` payloads (what
/// `panic!`/`assert!` produce) come through verbatim, anything else as a
/// placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Unwraps a result slot, riding through lock poisoning: slots hold
/// plain `Option`s whose every state is valid to observe, and the
/// workers that could have poisoned them have already exited.
fn into_slot_value<R>(slot: Mutex<Option<R>>) -> Option<R> {
    slot.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order, or the first (lowest-index) panic as a
/// [`WorkerPanic`]. The serial path (`jobs <= 1` or a single item) runs
/// everything inline on the caller's thread.
///
/// On a panic the remaining workers finish their in-flight items and
/// drain the cursor, then the lowest-index failure is reported (workers
/// race, so which items *ran* after the panic is nondeterministic, but
/// the reported slot is not: simulation closures are deterministic, and
/// the lowest failing index is a pure function of the input).
///
/// A panicking call's partial state is discarded wholesale (the pool
/// asserts unwind safety on that basis — nothing outside the call
/// observes it).
pub fn try_parallel_map_indexed<T, R, F>(
    items: &[T],
    jobs: usize,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let run = |i: usize, t: &T| -> Result<R, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|payload| WorkerPanic {
            slot: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let workers = effective_workers(jobs, n);
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, WorkerPanic>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (next, slots, run) = (&next, &slots, &run);
            scope.spawn(move || loop {
                // ORDER: the cursor is a pure claim counter — no data is
                // published through it, results flow via per-slot Mutexes.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let r = run(i, &items[i]);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(r);
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        match into_slot_value(slot) {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Unreachable today (workers always store before moving on);
            // reported as a panic rather than silently dropping a slot.
            None => {
                return Err(WorkerPanic {
                    slot: i,
                    message: "worker exited without storing a result".to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// [`try_parallel_map_indexed`] with the original panicking contract:
/// the first worker panic is re-raised on the caller's thread, its
/// message enriched with the slot index.
///
/// # Panics
///
/// A panic inside `f` is propagated to the caller once all workers have
/// stopped, as `worker panicked at slot N: <payload>`.
pub fn parallel_map_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_parallel_map_indexed(items, jobs, f) {
        Ok(out) => out,
        // Documented contract of this wrapper: re-raise with context.
        // fpb-lint: allow(panic_freedom)
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 4, 8, 32] {
            let out = parallel_map_indexed(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn more_jobs_than_items() {
        let items = [1u32, 2, 3];
        let out = parallel_map_indexed(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: [u32; 0] = [];
        let out = parallel_map_indexed(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..200).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = parallel_map_indexed(&items, 1, f);
        let parallel = parallel_map_indexed(&items, 7, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_items_and_cores() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(1, 10), 1);
        assert_eq!(effective_workers(8, 3), effective_workers(8, 3).min(3));
        assert!(effective_workers(64, 1000) <= default_jobs());
        assert!(effective_workers(64, 1000) >= 1);
        // Never more workers than items, however many cores exist.
        assert_eq!(effective_workers(usize::MAX, 2).min(2), effective_workers(usize::MAX, 2));
    }

    #[test]
    fn schedule_by_cost_is_descending_and_stable() {
        let costs = [5u64, 9, 1, 9, 7];
        // Descending by cost; the two 9s keep input order (1 before 3).
        assert_eq!(schedule_by_cost(&costs), vec![1, 3, 4, 0, 2]);
        assert!(schedule_by_cost(&[]).is_empty());
        // Uniform costs degrade to input order.
        assert_eq!(schedule_by_cost(&[4, 4, 4]), vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_propagates_with_slot_and_message() {
        let items: Vec<u32> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            parallel_map_indexed(&items, 4, |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        });
        let payload = r.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("slot 7"), "slot index missing: {msg}");
        assert!(msg.contains("boom"), "payload message missing: {msg}");
    }

    #[test]
    fn try_map_reports_lowest_failing_slot() {
        let items: Vec<u32> = (0..32).collect();
        for jobs in [1, 4] {
            let err = try_parallel_map_indexed(&items, jobs, |_, &x| {
                if x % 10 == 3 {
                    panic!("bad point {x}");
                }
                x
            })
            .expect_err("must fail");
            assert_eq!(err.slot, 3, "jobs={jobs}");
            assert_eq!(err.message, "bad point 3");
            assert_eq!(err.to_string(), "worker panicked at slot 3: bad point 3");
        }
    }

    #[test]
    fn try_map_ok_path_matches_plain_map() {
        let items: Vec<u64> = (0..50).collect();
        let ok = try_parallel_map_indexed(&items, 5, |_, &x| x * 2).unwrap();
        assert_eq!(ok, parallel_map_indexed(&items, 5, |_, &x| x * 2));
    }

    #[test]
    fn non_string_payloads_are_placeholdered() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
