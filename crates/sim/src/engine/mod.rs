//! The cycle-driven simulation engine.
//!
//! Event-driven replay: time jumps between the earliest pending events
//! (bank completions and core arrivals). Between events the engine runs a
//! scheduling pass implementing the paper's controller policy: reads
//! first; writes only when no read is waiting; a write burst — which
//! blocks reads — whenever the write queue fills (§5.1); token admission
//! through the [`PowerManager`] for every write iteration.
//!
//! The engine is decomposed into lifecycle-stage modules, each an
//! `impl<S: Scheme> System<S>` block over the shared state below:
//!
//! - [`admission`]: the scheduling pass — queue management, burst
//!   bookkeeping, task creation, round splitting, write admission.
//! - [`iteration`]: per-event processing — iteration boundaries, IPM
//!   pre-reads, pausing/stall decisions, core-side arrivals.
//! - [`power`]: round-cap derivation, brownout windows, time accounting.
//! - [`completion`]: round convergence, worst-case draining, verify
//!   failure recovery, cancellation, bank reclaim.
//! - [`events`]: the event-heap stepper and its reference scan twin.
//!
//! Scheme behavior enters only at stage boundaries, through the
//! [`Scheme`] lifecycle hooks; the stages themselves are scheme-agnostic
//! mechanism, checked against the [`crate::scheme::WriteLifecycle`]
//! transition table in debug builds.

mod admission;
mod completion;
mod events;
mod iteration;
mod power;

#[cfg(test)]
mod tests;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use fpb_core::PowerManager;
use fpb_pcm::{
    DimmGeometry, FaultInjector, IntraLineWearLeveler, IterationSampler, WriteBufferPool,
};
use fpb_trace::Workload;
use fpb_types::{Cycles, CoreId, LineAddr, SimError, SimRng, SystemConfig};

use crate::bank::BankState;
use crate::frontend::CoreState;
use crate::inspect::{EventSink, LifecycleEvent, NullSink, PowerOp};
use crate::metrics::Metrics;
use crate::request::{ReadTask, RoundSplitter, WriteTask};
use crate::scheme::{Scheme, SchemeSetup};

/// Run-scale options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Instructions each core retires before the run ends. The paper runs
    /// 1 B instructions; the benches here default to a reduced,
    /// shape-preserving budget.
    pub instructions_per_core: u64,
    /// Untimed LLC warm-up generator operations per core before
    /// measurement, on top of the deterministic prefill and hot-tier walk
    /// (`None` = automatic).
    pub warmup_accesses: Option<u64>,
    /// Run the full L1/L2/L3 cache stack per core instead of the
    /// LLC-level front end (slower; for full-fidelity studies).
    pub full_hierarchy: bool,
    /// Drift-scrub period in cycles: every period the controller issues
    /// background scrub reads over recently written lines (see
    /// [`fpb_pcm::DriftModel::scrub_interval_secs`] for deriving a period
    /// from a drift model). `None` disables scrubbing. Realistic periods
    /// are enormous (minutes); small values exist for stress testing.
    pub scrub_period_cycles: Option<u64>,
    /// Run the power manager's token-conservation auditor after every
    /// grant and release: violations are counted in
    /// [`Metrics::faults`]`.audit_violations`. Off by default (the audit
    /// re-sums every outstanding grant, which costs time).
    pub audit_ledger: bool,
    /// Use the original O(banks + cores) scan stepper instead of the
    /// event heap. The two are bit-for-bit identical; the scan survives
    /// as the differential-testing reference and the `fpb bench`
    /// pre-optimization baseline.
    pub reference_stepper: bool,
    /// Allocate fresh write buffers per line write instead of recycling
    /// through the [`WriteBufferPool`]. Bit-for-bit identical to the
    /// pooled path; kept as the differential-testing reference.
    pub reference_alloc: bool,
    /// Sample changed bits with the original per-bit Bernoulli loop
    /// instead of the word-level mask sampler. The two samplers are
    /// distributionally equivalent but consume the RNG differently, so
    /// this flag (unlike the other two) changes simulated results; it
    /// exists for calibration comparisons and the pre-optimization
    /// benchmark baseline.
    pub reference_sampler: bool,
}

impl SimOptions {
    /// Creates options with the given instruction budget and automatic
    /// warm-up.
    pub fn with_instructions(instructions_per_core: u64) -> Self {
        SimOptions {
            instructions_per_core,
            warmup_accesses: None,
            full_hierarchy: false,
            scrub_period_cycles: None,
            audit_ledger: false,
            reference_stepper: false,
            reference_alloc: false,
            reference_sampler: false,
        }
    }

    /// All three reference knobs at once: the pre-optimization write
    /// path (per-bit sampling, fresh allocation, scan stepper), used by
    /// `fpb bench` as the speedup baseline.
    pub fn reference_path(mut self) -> Self {
        self.reference_stepper = true;
        self.reference_alloc = true;
        self.reference_sampler = true;
        self
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::with_instructions(1_000_000)
    }
}

/// One PCM bank plus its write-pausing parking spot.
#[derive(Debug)]
struct Bank {
    state: BankState,
    /// A write parked by write pausing so reads can be served.
    parked: Option<WriteTask>,
}

/// The simulated system: cores, controller, banks, power manager.
///
/// Generic over the [`Scheme`] driving it; defaults to the standard
/// [`SchemeSetup`] composition, so `System` without parameters keeps
/// meaning what it always did. Use [`run_workload`] unless you need
/// step-level control.
///
/// Also generic over the [`EventSink`] receiving lifecycle events;
/// defaults to [`NullSink`], whose disabled `ENABLED` constant folds
/// every emission site out of the hot path. Pass a live sink through
/// [`System::with_cores_and_sink`] (or [`run_workload_recorded`]) to
/// capture the run's full event stream for `fpb inspect`.
#[derive(Debug)]
pub struct System<S: Scheme = SchemeSetup, E: EventSink = NullSink> {
    cfg: SystemConfig,
    setup: S,
    cores: Vec<CoreState>,
    banks: Vec<Bank>,
    rdq: VecDeque<ReadTask>,
    pending_reads: VecDeque<ReadTask>,
    wrq: VecDeque<WriteTask>,
    overflow: VecDeque<WriteTask>,
    power: PowerManager,
    geom: DimmGeometry,
    sampler: IterationSampler,
    wear: Option<IntraLineWearLeveler>,
    data_rng: SimRng,
    write_rng: SimRng,
    now: Cycles,
    burst: bool,
    bus_free_at: Cycles,
    next_write_id: u64,
    target_instr: u64,
    cap_total: Option<u64>,
    cap_chip: Option<u64>,
    /// Ring of recently written lines, the scrub candidates (drifting
    /// intermediate levels live where writes happened).
    recent_writes: VecDeque<LineAddr>,
    scrub_period: Option<u64>,
    next_scrub_at: Cycles,
    /// Fault injector, present only when any fault knob is nonzero — a
    /// fully disabled fault config leaves the engine bit-for-bit identical
    /// to a build without the fault subsystem.
    faults: Option<FaultInjector>,
    /// Reusable round-splitting buffers (every dirty eviction is split;
    /// the grouping scratch must not be reallocated per write).
    splitter: RoundSplitter,
    /// Free-list of write-buffer storage recycled from completed writes
    /// (the write path allocates nothing once the pool is primed).
    pool: WriteBufferPool,
    /// Pending-event min-heap keyed by `(time, source)`, where source ids
    /// `0..banks` are banks and `banks..banks+cores` are cores. Entries
    /// are lazily invalidated: one is live only while its source still
    /// schedules an event at exactly that time.
    events: BinaryHeap<Reverse<(Cycles, u32)>>,
    /// Scratch for the sources due in one step (sorted + deduped so the
    /// processing order matches the reference scan exactly).
    due_scratch: Vec<u32>,
    /// Scratch for bank events that appear at exactly `now` while a step
    /// is already processing (deferred to the next step, as the scan
    /// defers them).
    deferred_scratch: Vec<(Cycles, u32)>,
    reference_stepper: bool,
    reference_alloc: bool,
    reference_sampler: bool,
    /// When the current brownout window began (drives degraded mode).
    brownout_since: Option<Cycles>,
    /// Degraded mode: brownout persisted past the configured threshold, so
    /// new writes are issued in SLC fallback until the window ends.
    degraded: bool,
    /// The run's counters, tallied only through [`Metrics::apply`] (see
    /// `System::record`).
    metrics: Metrics,
    /// Lifecycle-event receiver (the zero-cost [`NullSink`] by default).
    sink: E,
}

/// Sentinel "core" index marking a background scrub read (no core to
/// wake on completion).
const SCRUB_CORE: usize = usize::MAX;

/// Simulates `workload` on `cfg` under `setup` and returns the metrics.
///
/// Deterministic: the same arguments always produce the same result.
///
/// # Examples
///
/// ```
/// use fpb_sim::{run_workload, SchemeSetup, SimOptions};
/// use fpb_trace::catalog;
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let wl = catalog::workload("xal_m").unwrap();
/// let opts = SimOptions::with_instructions(30_000);
/// let m = run_workload(&wl, &cfg, &SchemeSetup::dimm_chip(&cfg), &opts);
/// assert_eq!(m.instructions_per_core, 30_000);
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_workload<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
) -> Metrics {
    System::new(workload, cfg, setup, opts).run()
}

/// Like [`run_workload`] but returning engine failures (scheduling
/// deadlocks, config errors) as [`SimError`] instead of panicking — the
/// API for callers that must degrade gracefully, e.g. the CLI.
///
/// # Examples
///
/// ```
/// use fpb_sim::{try_run_workload, SchemeSetup, SimOptions};
/// use fpb_trace::catalog;
/// use fpb_types::SystemConfig;
///
/// let cfg = SystemConfig::default();
/// let wl = catalog::workload("xal_m").unwrap();
/// let opts = SimOptions::with_instructions(30_000);
/// let m = try_run_workload(&wl, &cfg, &SchemeSetup::fpb(&cfg), &opts).unwrap();
/// assert_eq!(m.instructions_per_core, 30_000);
/// ```
pub fn try_run_workload<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
) -> Result<Metrics, SimError> {
    cfg.validate()?;
    System::new(workload, cfg, setup, opts).try_run()
}

/// Builds and warms the per-core front ends for a workload. Warm-up cost
/// dominates short runs, and warmed cores depend only on the workload and
/// system config — sweeping many schemes over one workload should warm
/// once and pass clones to [`run_workload_warmed`].
///
/// Cores are constructed one after another in core order, because
/// construction draws from the root RNG; each core then takes its own
/// warm-up stream `root.fork(0xF111 + i)`, also in core order. The
/// warm-ups themselves run concurrently on up to
/// [`crate::exec::effective_workers`] scoped threads: each touches only
/// its own generator, LLC and forked stream, so the warmed set is
/// bit-for-bit the same for any worker count.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn warm_cores(workload: &Workload, cfg: &SystemConfig, opts: &SimOptions) -> Vec<CoreState> {
    // Construction-time validation with a documented `# Panics` contract;
    // panic_reachability confirms this is unreachable from run/step.
    // fpb-lint: allow(panic_freedom)
    cfg.validate().expect("invalid system config");
    assert!(
        workload.per_core.len() >= cfg.cores as usize,
        "workload has {} profiles for {} cores",
        workload.per_core.len(),
        cfg.cores
    );
    let mut root = SimRng::seed_from(cfg.seed);
    let warmup = opts.warmup_accesses.unwrap_or(60_000);
    let mut built: Vec<(CoreState, SimRng)> = (0..cfg.cores)
        .map(|i| {
            let core = CoreState::with_mode(
                workload.per_core[i as usize].clone(),
                CoreId::new(i),
                &cfg.cache,
                &mut root,
                opts.full_hierarchy,
            )
            // Construction-time validation (see `# Panics` above);
            // unreachable from run/step per panic_reachability.
            // fpb-lint: allow(panic_freedom)
            .expect("invalid cache config");
            let wrng = root.fork(0xF111 + i as u64);
            (core, wrng)
        })
        .collect();
    let workers = crate::exec::effective_workers(crate::exec::default_jobs(), built.len());
    let per_worker = built.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for chunk in built.chunks_mut(per_worker) {
            scope.spawn(move || {
                for (core, wrng) in chunk {
                    core.warm_up(warmup, wrng);
                }
            });
        }
    });
    built.into_iter().map(|(core, _)| core).collect()
}

/// Like [`run_workload`] but reusing pre-warmed cores (see
/// [`warm_cores`]). The cores are cloned, so the same warmed set can be
/// replayed under many schemes with identical initial cache state.
pub fn run_workload_warmed<S: Scheme + Clone>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
    cores: &[CoreState],
) -> Metrics {
    System::with_cores(workload, cfg, setup, opts, cores.to_vec()).run()
}

/// Like [`try_run_workload`] but recording the run's lifecycle event
/// stream into `sink`, returned alongside the metrics. The sink observes
/// the engine without perturbing it, so the metrics are bit-for-bit what
/// [`try_run_workload`] would report.
///
/// # Errors
///
/// Returns [`SimError`] for an invalid configuration or a scheduling
/// deadlock, exactly as [`try_run_workload`] does.
pub fn run_workload_recorded<S: Scheme + Clone, E: EventSink>(
    workload: &Workload,
    cfg: &SystemConfig,
    setup: &S,
    opts: &SimOptions,
    sink: E,
) -> Result<(Metrics, E), SimError> {
    cfg.validate()?;
    let mut sys = System::new_with_sink(workload, cfg, setup, opts, sink);
    while sys.try_step()? {}
    Ok(sys.finish_with_sink())
}

impl<S: Scheme + Clone> System<S> {
    /// Builds the system in its initial state.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the workload does not provide a
    /// profile for every core.
    pub fn new(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
    ) -> Self {
        let cores = warm_cores(workload, cfg, opts);
        Self::with_cores(workload, cfg, setup, opts, cores)
    }

    /// Builds the system around pre-warmed cores (see [`warm_cores`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_cores(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        cores: Vec<CoreState>,
    ) -> Self {
        System::with_cores_and_sink(workload, cfg, setup, opts, cores, NullSink)
    }
}

impl<S: Scheme + Clone, E: EventSink> System<S, E> {
    /// Like [`System::new`] but recording lifecycle events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the workload does not provide a
    /// profile for every core.
    pub fn new_with_sink(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        sink: E,
    ) -> Self {
        let cores = warm_cores(workload, cfg, opts);
        Self::with_cores_and_sink(workload, cfg, setup, opts, cores, sink)
    }

    /// Builds the system around pre-warmed cores and a lifecycle-event
    /// sink. The sink cannot change simulated results — emission sites
    /// only observe engine state, never mutate it (enforced by the
    /// recorded-vs-plain equivalence gate).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_cores_and_sink(
        workload: &Workload,
        cfg: &SystemConfig,
        setup: &S,
        opts: &SimOptions,
        cores: Vec<CoreState>,
        sink: E,
    ) -> Self {
        // Construction-time validation with a documented `# Panics`
        // contract; unreachable from run/step per panic_reachability.
        // fpb-lint: allow(panic_freedom)
        cfg.validate().expect("invalid system config");
        let _ = workload;
        let geom = DimmGeometry::new(cfg.pcm.chips, cfg.pcm.cells_per_line());
        let mut power = PowerManager::new(setup.policy().clone(), &geom);
        if opts.audit_ledger {
            power.enable_audit();
        }
        // The fault stream forks off its own fresh root so enabling or
        // disabling injection can never perturb the data/write streams.
        let faults = if cfg.faults.any_injection_enabled() {
            Some(FaultInjector::new(
                cfg.faults.clone(),
                SimRng::seed_from(cfg.seed).fork(0xFA017),
            ))
        } else {
            None
        };
        let (cap_total, cap_chip) = power::round_caps(setup.policy());
        let banks = (0..cfg.pcm.banks)
            .map(|_| Bank {
                state: BankState::Idle,
                parked: None,
            })
            .collect();
        let mut sys = System {
            cores,
            banks,
            rdq: VecDeque::new(),
            pending_reads: VecDeque::new(),
            wrq: VecDeque::new(),
            overflow: VecDeque::new(),
            power,
            geom,
            sampler: IterationSampler::new(setup.iteration_model(&cfg.pcm.write_model)),
            wear: setup
                .wear_period()
                .map(|p| IntraLineWearLeveler::new(p, cfg.pcm.cells_per_line())),
            data_rng: SimRng::seed_from(cfg.seed).fork(0xDA7A),
            write_rng: SimRng::seed_from(cfg.seed).fork(0x9C3),
            now: Cycles::ZERO,
            burst: false,
            bus_free_at: Cycles::ZERO,
            next_write_id: 0,
            target_instr: opts.instructions_per_core,
            cap_total,
            cap_chip,
            recent_writes: VecDeque::new(),
            scrub_period: opts.scrub_period_cycles,
            next_scrub_at: Cycles::new(opts.scrub_period_cycles.unwrap_or(u64::MAX)),
            faults,
            splitter: RoundSplitter::new(),
            pool: WriteBufferPool::new(),
            events: BinaryHeap::new(),
            due_scratch: Vec::new(),
            deferred_scratch: Vec::new(),
            reference_stepper: opts.reference_stepper,
            reference_alloc: opts.reference_alloc,
            reference_sampler: opts.reference_sampler,
            brownout_since: None,
            degraded: false,
            metrics: Metrics::default(),
            cfg: cfg.clone(),
            setup: setup.clone(),
            sink,
        };
        for ci in 0..sys.cores.len() {
            sys.push_core_event(ci);
        }
        let ev = LifecycleEvent::RunStart {
            cores: sys.cfg.cores,
            instructions_per_core: opts.instructions_per_core,
            chips: sys.cfg.pcm.chips,
            banks: sys.cfg.pcm.banks,
            total_lines: sys.cfg.pcm.total_lines(),
            cells_per_chip_per_line: u64::from(sys.cfg.pcm.cells_per_chip_per_line()),
            seed: sys.cfg.seed,
        };
        sys.record(ev);
        sys
    }
}

impl<S: Scheme, E: EventSink> System<S, E> {
    /// Runs to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics on an internal scheduling deadlock (a bug, not a workload
    /// property — round splitting guarantees forward progress). Use
    /// [`System::try_run`] to get the failure as a value instead.
    pub fn run(self) -> Metrics {
        match self.try_run() {
            Ok(m) => m,
            // Documented contract of this wrapper: re-raise the typed
            // failure from `try_run` for callers that treat a deadlock
            // as a bug (same shape as exec::parallel_map_indexed).
            // fpb-lint: allow(panic_freedom, panic_reachability)
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs to completion, returning engine failures as [`SimError`].
    pub fn try_run(mut self) -> Result<Metrics, SimError> {
        while self.try_step()? {}
        Ok(self.finish())
    }

    /// Advances the simulation by one event round: process everything due
    /// now, run a scheduling pass, and jump to the next event. Returns
    /// `false` once every core has retired its budget. Useful for
    /// white-box inspection between events; [`System::run`] is the
    /// batteries-included driver.
    ///
    /// # Panics
    ///
    /// Panics on an internal scheduling deadlock (a bug, not a workload
    /// property — round splitting guarantees forward progress). Use
    /// [`System::try_step`] to get the failure as a value instead.
    pub fn step(&mut self) -> bool {
        match self.try_step() {
            Ok(more) => more,
            // Documented contract of this wrapper: re-raise the typed
            // failure from `try_step` for callers that treat a deadlock
            // as a bug (same shape as exec::parallel_map_indexed).
            // fpb-lint: allow(panic_freedom, panic_reachability)
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`System::step`], returning a scheduling deadlock as
    /// [`SimError::Deadlock`] instead of panicking.
    pub fn try_step(&mut self) -> Result<bool, SimError> {
        if E::ENABLED {
            // One snapshot per step, before any processing — 1:1 with
            // the samples `Timeline::record` takes, so replay rebuilds
            // the timeline exactly.
            let ev = LifecycleEvent::StepSnapshot {
                at: self.now.get(),
                bank_mask: self.bank_write_mask(),
                burst: self.burst,
                wrq: self.wrq.len() as u64,
                rdq: self.rdq.len() as u64,
            };
            self.sink.emit(ev);
        }
        self.update_brownout();
        if self.reference_stepper {
            self.process_bank_events();
            self.process_core_arrivals();
        } else {
            self.process_due_events();
        }
        self.schedule();
        if self.cores.iter().all(|c| c.done) {
            return Ok(false);
        }
        let next = if self.reference_stepper {
            self.next_event_time()
        } else {
            self.next_event_time_heap()
        };
        let next = next.ok_or(SimError::Deadlock {
            cycle: self.now.get(),
            pending_writes: self.wrq.len() + self.overflow.len(),
            pending_reads: self.rdq.len() + self.pending_reads.len(),
        })?;
        debug_assert!(next > self.now, "time must advance");
        self.account(next);
        self.now = next;
        Ok(true)
    }

    /// Finalizes and returns the metrics (call after [`System::step`]
    /// returns `false`).
    pub fn finish(self) -> Metrics {
        self.finish_with_sink().0
    }

    /// Like [`System::finish`], also yielding the sink back so a
    /// recording caller can retrieve the captured event stream.
    pub fn finish_with_sink(mut self) -> (Metrics, E) {
        if E::ENABLED {
            for ci in 0..self.cores.len() {
                let ev = LifecycleEvent::CoreDone {
                    core: ci as u64,
                    at: self.cores[ci].done_at.get(),
                };
                self.sink.emit(ev);
            }
        }
        // The manager's final state, folded as one snapshot: replay gets
        // the same values from the last recorded per-call `Power` event,
        // so this one is not emitted.
        self.metrics.apply(&LifecycleEvent::Power {
            id: 0,
            op: PowerOp::Release,
            ok: true,
            at: self.now.get(),
            stats: self.power.stats().to_raw(),
            audit: self.power.audit_violations(),
        });
        let at = self.cores.iter().map(|c| c.done_at).max().unwrap_or(self.now).get();
        self.record(LifecycleEvent::RunEnd { at });
        (self.metrics, self.sink)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Entries currently queued in the write queue (excluding overflow).
    pub fn write_queue_len(&self) -> usize {
        self.wrq.len()
    }

    /// Entries currently queued in the read queue (excluding blocked
    /// arrivals).
    pub fn read_queue_len(&self) -> usize {
        self.rdq.len()
    }

    /// True while the controller is in write-burst mode.
    pub fn in_burst(&self) -> bool {
        self.burst
    }

    /// Snapshot of which banks currently hold a write in any form.
    pub fn banks_with_writes(&self) -> Vec<bool> {
        self.banks
            .iter()
            .map(|b| b.state.has_write() || b.parked.is_some())
            .collect()
    }

    /// Pool telemetry: `(reuses, fresh_allocations)` of the write-buffer
    /// pool, for benches and tests asserting the steady-state write path
    /// stops allocating.
    pub fn pool_stats(&self) -> (u64, u64) {
        (self.pool.reuses(), self.pool.fresh_allocations())
    }
}
