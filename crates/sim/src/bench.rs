//! The fixed self-measuring benchmark behind `fpb bench`.
//!
//! Runs one pinned sweep grid twice — serially, then on `jobs` workers —
//! and reports wall-clock numbers plus a bit-for-bit comparison of the
//! two result sets. Worker-count timings cover the simulation phase (the
//! worker pool), not the warm-up every rung shares. The report serializes to `BENCH_sweep.json` so every
//! PR leaves a perf trajectory behind: points/sec tracks sweep throughput,
//! sim cycles/sec tracks single-threaded engine throughput, and the
//! `identical` flag is the determinism guarantee CI enforces.

// This module *measures wall-clock speedup* of the parallel sweep; the
// timings are reporting-only and never feed simulation results, which the
// serial-vs-parallel `identical` gate below proves.
// fpb-lint: allow-file(determinism)
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fpb_trace::catalog;
use fpb_types::SystemConfig;

use crate::engine::SimOptions;
use crate::metrics::json_string;
use crate::scheme::SchemeSetup;
use crate::sweep::{run_plain, Axis, ReuseOptions, ReuseStats, SweepPoint};

/// Workload the fixed benchmark grid runs (write-heavy, so the power
/// budgeting hot paths dominate).
pub const BENCH_WORKLOAD: &str = "mcf_m";

/// Default per-core instruction budget for `fpb bench`.
pub const BENCH_INSTRUCTIONS: u64 = 40_000;

/// The pinned 3×4×3 grid (36 points): line size × DIMM tokens × GCP
/// efficiency. The token/efficiency axes are the two the paper's §6.4
/// sensitivity study leans on hardest; the line-size axis both exercises
/// the cost-aware scheduler (256 B points cost ~4× the 64 B ones) and
/// gives the parallel ladder enough work to amortize thread startup.
fn fixed_axes() -> Vec<Axis> {
    vec![
        Axis::line_bytes(&[64, 128, 256]),
        Axis::pt_dimm(&[466, 512, 560, 608]),
        Axis::e_gcp(&[0.5, 0.7, 0.9]),
    ]
}

/// One rung of the sweep scaling curve: the pinned grid timed at a
/// specific worker count.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Worker threads of this rung.
    pub jobs: usize,
    /// Simulation-phase wall of the grid at this worker count (the
    /// worker pool alone; planning and warm-up excluded), milliseconds.
    pub ms: f64,
    /// `serial_ms / ms` — parallel efficiency relative to the 1-job rung.
    pub speedup: f64,
    /// Sweep throughput at this worker count, points per second.
    pub points_per_sec: f64,
}

/// A ladder rung `fpb bench` declined to time, with the reason — the
/// honesty record for machines where a "parallel" rung could only ever
/// re-measure the serial pass (one effective worker).
#[derive(Debug, Clone)]
pub struct SkippedRung {
    /// Worker threads the skipped rung would have requested.
    pub jobs: usize,
    /// Why it was skipped.
    pub reason: String,
}

/// Cold-vs-warm wall-clock of the persistent result cache: the same
/// serial grid run twice against a private cache file, first empty
/// (every unit simulates, then saves) and then fully populated (every
/// unit splices).
#[derive(Debug, Clone)]
pub struct CacheRace {
    /// Serial grid wall with an empty cache, milliseconds (includes the
    /// cache save).
    pub cold_ms: f64,
    /// Serial grid wall with the populated cache, milliseconds.
    pub warm_ms: f64,
    /// Units answered from the cache on the warm pass.
    pub warm_hits: usize,
    /// Units simulated on the warm pass (0 when the cache fully covers
    /// the grid).
    pub warm_simulated: usize,
}

impl CacheRace {
    /// `cold_ms / warm_ms` — how much the warm start saves.
    pub fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-9)
    }
}

/// Per-point metric record kept in the report (everything here is a
/// deterministic simulation output — no wall-clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchPoint {
    /// The sweep point's label (axes + scheme).
    pub label: String,
    /// Scheme run cycles.
    pub cycles: u64,
    /// Baseline run cycles.
    pub baseline_cycles: u64,
    /// Scheme run completed line writes.
    pub pcm_writes: u64,
    /// Scheme run cells written.
    pub cells_written: u64,
}

/// The minimum 4-job speedup `fpb bench` demands, scaled to how much
/// parallelism the machine can actually deliver: with four or more
/// effective workers a healthy sweep must clear 2×; fewer cores lower
/// the bar, down to a plain no-regression floor (0.85×) when only one
/// core is available and every "parallel" rung is really serial.
pub fn required_speedup(effective_workers: usize) -> f64 {
    match effective_workers {
        0 | 1 => 0.85,
        2 => 1.3,
        3 => 1.6,
        _ => 2.0,
    }
}

/// The parallel-efficiency gate: the 4-job ladder rung's speedup judged
/// against [`required_speedup`] for the parallelism this machine can
/// actually deliver. CI fails the bench job when the gate fails, the
/// same way it fails on an `identical` divergence.
#[derive(Debug, Clone)]
pub struct EfficiencyGate {
    /// Ladder rung the gate reads (the 4-job rung).
    pub jobs: usize,
    /// Workers that rung can really use:
    /// `min(jobs, detected_cores, points)`.
    pub effective_workers: usize,
    /// Minimum acceptable speedup for that worker count.
    pub required_speedup: f64,
    /// The measured speedup of the rung (min-of-N wall times).
    pub actual_speedup: f64,
}

impl EfficiencyGate {
    /// True when the measured speedup clears the floor.
    pub fn passed(&self) -> bool {
        self.actual_speedup >= self.required_speedup
    }
}

/// The `fpb bench` result: wall-clock measurements plus the deterministic
/// per-point metrics.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload the grid ran.
    pub workload: String,
    /// Per-core instruction budget of each run.
    pub instructions_per_core: u64,
    /// Worker threads used for the parallel pass.
    pub jobs: usize,
    /// Logical cores the machine reports
    /// ([`crate::exec::default_jobs`]); makes the scaling ladder and the
    /// efficiency gate interpretable across machines.
    pub detected_cores: usize,
    /// Timed passes per ladder rung (minimum kept).
    pub repeats: u32,
    /// Grid size (number of sweep points).
    pub points: usize,
    /// Simulation-phase wall of the serial (`jobs = 1`) pass,
    /// milliseconds.
    pub serial_ms: f64,
    /// Simulation-phase wall of the parallel pass, milliseconds.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Sweep throughput of the parallel pass, points per second.
    pub points_per_sec: f64,
    /// Total simulated cycles across all runs of the serial pass (scheme
    /// + baseline of every point).
    pub sim_cycles_total: u64,
    /// Single-threaded engine throughput: simulated cycles per wall
    /// second of the serial pass's simulation phase.
    pub sim_cycles_per_sec: f64,
    /// True iff *every* scaling rung reproduced the serial pass
    /// bit-for-bit (labels, ordering, and full `Metrics` of both runs
    /// per point).
    pub identical: bool,
    /// The scaling curve: the pinned grid timed at each worker count of
    /// the ladder (1/2/4 plus the requested count when different).
    pub scaling: Vec<ScalingPoint>,
    /// Ladder rungs skipped because they could not exercise any real
    /// parallelism on this machine (empty on multi-core hosts).
    pub skipped_rungs: Vec<SkippedRung>,
    /// The parallel-efficiency CI gate, read off the 4-job rung.
    pub efficiency: EfficiencyGate,
    /// Semantic-dedup bookkeeping of the serial pass: how many engine
    /// runs the grid asks for vs how many distinct simulations it needs.
    pub reuse: ReuseStats,
    /// Serial simulation-phase wall with dedup disabled (one run per
    /// simulation, the pre-reuse behavior), milliseconds — the level-1
    /// comparison.
    pub no_reuse_serial_ms: f64,
    /// The level-2 comparison: cold vs warm persistent-cache passes.
    pub result_cache: CacheRace,
    /// Deterministic per-point metrics (serial pass).
    pub point_metrics: Vec<BenchPoint>,
}

impl BenchReport {
    /// Full JSON document (written to `BENCH_sweep.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fpb-bench-sweep/v1\",\n");
        s.push_str("  \"wall\": {\n");
        s.push_str(&format!("    \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("    \"detected_cores\": {},\n", self.detected_cores));
        s.push_str(&format!("    \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("    \"serial_ms\": {:.3},\n", self.serial_ms));
        s.push_str(&format!("    \"parallel_ms\": {:.3},\n", self.parallel_ms));
        s.push_str(&format!("    \"speedup\": {:.3},\n", self.speedup));
        s.push_str(&format!(
            "    \"points_per_sec\": {:.3},\n",
            self.points_per_sec
        ));
        s.push_str(&format!(
            "    \"sim_cycles_per_sec\": {:.1},\n",
            self.sim_cycles_per_sec
        ));
        s.push_str(&format!(
            "    \"runs_total\": {},\n",
            self.reuse.runs_total
        ));
        s.push_str(&format!(
            "    \"points_unique\": {},\n",
            self.reuse.runs_unique
        ));
        s.push_str(&format!(
            "    \"dedup_ratio\": {:.3},\n",
            self.reuse.dedup_ratio()
        ));
        s.push_str(&format!(
            "    \"no_reuse_serial_ms\": {:.3},\n",
            self.no_reuse_serial_ms
        ));
        s.push_str(&format!(
            "    \"dedup_speedup\": {:.3},\n",
            self.no_reuse_serial_ms / self.serial_ms.max(1e-9)
        ));
        s.push_str(&format!(
            "    \"result_cache\": {{\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"speedup\": {:.3}, \"warm_hits\": {}, \"warm_simulated\": {}}},\n",
            self.result_cache.cold_ms,
            self.result_cache.warm_ms,
            self.result_cache.speedup(),
            self.result_cache.warm_hits,
            self.result_cache.warm_simulated,
        ));
        s.push_str("    \"skipped_rungs\": [");
        for (i, sk) in self.skipped_rungs.iter().enumerate() {
            let comma = if i + 1 < self.skipped_rungs.len() { ", " } else { "" };
            s.push_str(&format!(
                "{{\"jobs\": {}, \"reason\": {}}}{comma}",
                sk.jobs,
                json_string(&sk.reason)
            ));
        }
        s.push_str("],\n");
        s.push_str("    \"scaling\": [\n");
        for (i, r) in self.scaling.iter().enumerate() {
            let comma = if i + 1 < self.scaling.len() { "," } else { "" };
            s.push_str(&format!(
                "      {{\"jobs\": {}, \"ms\": {:.3}, \"speedup\": {:.3}, \
                 \"points_per_sec\": {:.3}}}{comma}\n",
                r.jobs, r.ms, r.speedup, r.points_per_sec,
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"efficiency_gate\": {{\"jobs\": {}, \"effective_workers\": {}, \
             \"required_speedup\": {:.3}, \"actual_speedup\": {:.3}, \"passed\": {}}}\n",
            self.efficiency.jobs,
            self.efficiency.effective_workers,
            self.efficiency.required_speedup,
            self.efficiency.actual_speedup,
            self.efficiency.passed(),
        ));
        s.push_str("  },\n");
        s.push_str(&self.metric_fields_json(2));
        s.push_str("\n}\n");
        s
    }

    /// The deterministic subset of the report — everything except the
    /// `wall` object (and `jobs`, which feeds it). Two runs with any job
    /// counts must produce byte-identical output here; the property test
    /// and the CI divergence check compare exactly this string.
    pub fn metric_fields_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{pad}\"workload\": {},\n",
            json_string(&self.workload)
        ));
        s.push_str(&format!(
            "{pad}\"instructions_per_core\": {},\n",
            self.instructions_per_core
        ));
        s.push_str(&format!("{pad}\"points\": {},\n", self.points));
        s.push_str(&format!(
            "{pad}\"sim_cycles_total\": {},\n",
            self.sim_cycles_total
        ));
        s.push_str(&format!("{pad}\"identical\": {},\n", self.identical));
        s.push_str(&format!("{pad}\"point_metrics\": [\n"));
        for (i, p) in self.point_metrics.iter().enumerate() {
            let comma = if i + 1 < self.point_metrics.len() { "," } else { "" };
            s.push_str(&format!(
                "{pad}  {{\"label\": {}, \"cycles\": {}, \"baseline_cycles\": {}, \
                 \"pcm_writes\": {}, \"cells_written\": {}}}{comma}\n",
                json_string(&p.label),
                p.cycles,
                p.baseline_cycles,
                p.pcm_writes,
                p.cells_written,
            ));
        }
        s.push_str(&format!("{pad}]"));
        s
    }
}

/// The worker-count ladder every `fpb bench` run climbs; the requested
/// job count is appended when it is not already a rung.
const SCALING_LADDER: [usize; 3] = [1, 2, 4];

/// Timed passes per ladder rung in the default configuration (`fpb
/// bench` without `--repeats`): the minimum of two is kept, rejecting
/// one-off noise without doubling CI time again.
pub const BENCH_REPEATS: u32 = 2;

/// [`run_fixed_bench_repeats`] with the default [`BENCH_REPEATS`].
pub fn run_fixed_bench(jobs: usize, instructions_per_core: u64) -> Option<BenchReport> {
    run_fixed_bench_repeats(jobs, instructions_per_core, BENCH_REPEATS)
}

/// Runs the fixed grid at every rung of the scaling ladder (1/2/4
/// workers plus the requested `jobs` when different), comparing each
/// rung's results bit-for-bit against the serial pass.
/// `instructions_per_core` scales run length ([`BENCH_INSTRUCTIONS`] is
/// the pinned default CI uses).
///
/// Each rung is timed `repeats` times and the minimum kept — the
/// standard noise rejection for wall-clock benchmarks. A rung's time is
/// the sweep's simulation phase ([`crate::sweep::SweepRun::sim_wall`]):
/// the warm-up before it already runs on every core at every rung, so
/// it would only dilute the speedups the efficiency gate reads. With
/// `repeats > 1` an untimed warmup pass runs first, so allocator
/// arenas, page tables, and frequency scaling are primed before
/// anything is measured; `repeats = 1` skips the warmup (the quick
/// single-shot mode tests use). Every timed pass, every rung, feeds the
/// `identical` gate.
///
/// Returns `None` if the pinned workload is missing from the catalog —
/// impossible with the checked-in catalog, but the benchmark is not a
/// place to panic over it.
pub fn run_fixed_bench_repeats(
    jobs: usize,
    instructions_per_core: u64,
    repeats: u32,
) -> Option<BenchReport> {
    let wl = catalog::workload(BENCH_WORKLOAD)?;
    let cfg = SystemConfig::default();
    let axes = fixed_axes();
    let opts = SimOptions::with_instructions(instructions_per_core);
    let repeats = repeats.max(1);
    let detected_cores = crate::exec::default_jobs();

    let mut ladder: Vec<usize> = SCALING_LADDER.to_vec();
    if !ladder.contains(&jobs) {
        ladder.push(jobs);
        ladder.sort_unstable();
    }

    // Ladder rungs run with the shipping default — semantic dedup on,
    // no persistent cache — so the scaling curve measures the profile a
    // real `fpb sweep` has. The cache stays out of the ladder because a
    // file warm-started by rung N would hollow out rung N+1.
    //
    // Each pass also yields its simulation-phase wall (`sim_wall`), the
    // worker pool alone. The ladder times that, not the whole sweep:
    // `warm_cores` spreads every warm-up over all cores whatever the
    // rung, so whole-sweep times would dilute every rung's speedup with
    // the same already-parallel warm-up.
    let sweep = |rung: usize, reuse: &ReuseOptions| {
        let run = run_plain(&wl, cfg.clone(), &axes, "fpb", "dimm-chip", &opts, rung, reuse);
        let (stats, sim_s) = (run.reuse, run.sim_wall.as_secs_f64());
        (run.into_points(), stats, sim_s)
    };
    let no_cache = ReuseOptions::default();

    if repeats > 1 {
        // Untimed warmup pass (results discarded).
        let _ = sweep(jobs.max(1), &no_cache);
    }

    // Serial rung first: its first pass is the bit-for-bit reference
    // every other pass (serial repeats included) is compared against.
    let (serial, reuse_stats, mut serial_s) = sweep(1, &no_cache);
    let mut identical = true;
    for _ in 1..repeats {
        let (again, _, again_s) = sweep(1, &no_cache);
        serial_s = serial_s.min(again_s);
        identical &= points_identical(&serial, &again);
    }

    // Level-1 comparison: the same serial grid with dedup off (one
    // engine run per simulation, the pre-reuse behavior). Feeds the
    // `identical` gate — reuse must never change bytes — and the
    // `dedup_speedup` wall number.
    let (no_reuse, _, no_reuse_serial_s) = sweep(1, &ReuseOptions::disabled());
    identical &= points_identical(&serial, &no_reuse);

    let mut scaling = Vec::with_capacity(ladder.len());
    let mut skipped_rungs = Vec::new();
    let mut requested_s = serial_s;
    for &rung in &ladder {
        let rung_s = if rung == 1 {
            serial_s
        } else if crate::exec::effective_workers(rung, serial.len()) <= 1 {
            // Honesty over optics: with one effective worker this rung
            // would re-time the serial pass and report it as "parallel".
            skipped_rungs.push(SkippedRung {
                jobs: rung,
                reason: format!(
                    "effective_workers=1 (detected_cores={detected_cores}): \
                     rung would only re-measure the serial pass"
                ),
            });
            continue;
        } else {
            let mut best = f64::INFINITY;
            for _ in 0..repeats {
                let (result, _, rung_s) = sweep(rung, &no_cache);
                best = best.min(rung_s);
                identical &= points_identical(&serial, &result);
            }
            best
        };
        if rung == jobs {
            requested_s = rung_s;
        }
        scaling.push(ScalingPoint {
            jobs: rung,
            ms: rung_s * 1e3,
            speedup: serial_s / rung_s.max(1e-9),
            points_per_sec: serial.len() as f64 / rung_s.max(1e-9),
        });
    }
    let parallel_s = requested_s;

    // Level-2 comparison: cold vs warm persistent cache on a private
    // file (unique per process *and* per call, so concurrently running
    // bench tests never warm-start each other). Both passes feed the
    // `identical` gate.
    static CACHE_SEQ: AtomicU64 = AtomicU64::new(0);
    let cache_path = std::env::temp_dir().join(format!(
        "fpb-bench-cache-{}-{}.v1",
        std::process::id(),
        // ORDER: pure uniqueness counter; no other memory access is
        // sequenced against the ticket value.
        CACHE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&cache_path);
    let with_cache = ReuseOptions { dedup: true, cache: Some(cache_path.clone()) };
    // The cache race times whole sweeps: a warm start's win is skipping
    // warm-up as well as simulation.
    let t = Instant::now();
    let (cold, _, _) = sweep(1, &with_cache);
    let cache_cold_s = t.elapsed().as_secs_f64();
    identical &= points_identical(&serial, &cold);
    let t = Instant::now();
    let (warm, warm_stats, _) = sweep(1, &with_cache);
    let cache_warm_s = t.elapsed().as_secs_f64();
    identical &= points_identical(&serial, &warm);
    let _ = std::fs::remove_file(&cache_path);
    let result_cache = CacheRace {
        cold_ms: cache_cold_s * 1e3,
        warm_ms: cache_warm_s * 1e3,
        warm_hits: warm_stats.cache_hits,
        warm_simulated: warm_stats.simulated,
    };

    // The efficiency gate reads the 4-job rung (always on the ladder).
    let gate_rung = scaling
        .iter()
        .filter(|p| p.jobs <= 4)
        .max_by_key(|p| p.jobs)
        .map_or((4, 1.0), |p| (p.jobs, p.speedup));
    let effective_workers = crate::exec::effective_workers(gate_rung.0, serial.len());
    let efficiency = EfficiencyGate {
        jobs: gate_rung.0,
        effective_workers,
        required_speedup: required_speedup(effective_workers),
        actual_speedup: gate_rung.1,
    };

    let sim_cycles_total: u64 = serial
        .iter()
        .map(|p| p.metrics.cycles + p.baseline.cycles)
        .sum();
    let point_metrics = serial
        .iter()
        .map(|p| BenchPoint {
            label: p.label.clone(),
            cycles: p.metrics.cycles,
            baseline_cycles: p.baseline.cycles,
            pcm_writes: p.metrics.pcm_writes,
            cells_written: p.metrics.cells_written,
        })
        .collect();
    Some(BenchReport {
        workload: BENCH_WORKLOAD.to_string(),
        instructions_per_core,
        jobs,
        detected_cores,
        repeats,
        points: serial.len(),
        serial_ms: serial_s * 1e3,
        parallel_ms: parallel_s * 1e3,
        speedup: serial_s / parallel_s.max(1e-9),
        points_per_sec: serial.len() as f64 / parallel_s.max(1e-9),
        sim_cycles_total,
        sim_cycles_per_sec: sim_cycles_total as f64 / serial_s.max(1e-9),
        identical,
        scaling,
        skipped_rungs,
        efficiency,
        reuse: reuse_stats,
        no_reuse_serial_ms: no_reuse_serial_s * 1e3,
        result_cache,
        point_metrics,
    })
}

/// Bit-for-bit comparison of two sweep result sets: same length, same
/// labels in the same order, equal scheme and baseline `Metrics`.
pub fn points_identical(a: &[SweepPoint], b: &[SweepPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|(x, y)| {
            x.label == y.label && x.metrics == y.metrics && x.baseline == y.baseline
        })
}

// ---- hot-path benchmark (`fpb bench` → BENCH_hotpath.json) ----

/// Timing repeats per engine configuration; the report keeps the minimum,
/// the standard noise-rejection for wall-clock microbenchmarks.
const HOTPATH_REPEATS: u32 = 5;

/// Lines sampled / line writes built per micro-measurement.
const HOTPATH_MICRO_ITERS: u32 = 2_000;

/// Floor the line-write pooling micro must clear
/// (`fresh_ms / pooled_ms`). Pooling exists for the engine's
/// allocation-heavy steady state; in this isolated micro the pool's
/// free-list hit and the allocator's own fast path are nearly tied, so
/// the gate demands break-even within measurement noise rather than a
/// phantom win. (The historical 0.961 reading was order bias: pooled
/// and fresh were each timed in one sequential block, so whichever ran
/// first absorbed the cold allocator; the race now alternates sides
/// with min-of-N, like the engine race.)
pub const LINE_WRITE_FLOOR: f64 = 0.97;

/// The write-path performance report: the optimized path (word-level
/// change sampling + pooled buffers + event-heap stepper) raced against
/// the pre-optimization reference path
/// ([`SimOptions::reference_path`](crate::SimOptions::reference_path)),
/// plus component microbenchmarks and the correctness gates CI enforces.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Workload of the engine runs.
    pub workload: String,
    /// Per-core instruction budget of the engine runs.
    pub instructions_per_core: u64,
    /// Timing repeats (minimum kept).
    pub repeats: u32,
    /// Full-engine wall-clock, optimized write path, milliseconds.
    pub engine_optimized_ms: f64,
    /// Full-engine wall-clock, reference write path, milliseconds.
    pub engine_reference_ms: f64,
    /// `engine_reference_ms / engine_optimized_ms`.
    pub engine_speedup: f64,
    /// Word-level change sampling micro, milliseconds.
    pub sampler_words_ms: f64,
    /// Per-bit reference change sampling micro, milliseconds.
    pub sampler_perbit_ms: f64,
    /// `sampler_perbit_ms / sampler_words_ms`.
    pub sampler_speedup: f64,
    /// Pooled `LineWrite` build micro, milliseconds.
    pub line_write_pooled_ms: f64,
    /// Fresh-allocation `LineWrite` build micro, milliseconds.
    pub line_write_fresh_ms: f64,
    /// `line_write_fresh_ms / line_write_pooled_ms`.
    pub line_write_speedup: f64,
    /// Pool buffer reuses during the gate run.
    pub pool_reuses: u64,
    /// Pool fresh allocations during the gate run.
    pub pool_fresh_allocations: u64,
    /// Heap stepper reproduced the scan stepper bit-for-bit.
    pub stepper_identical: bool,
    /// Pooled buffers reproduced fresh allocation bit-for-bit.
    pub pooling_identical: bool,
    /// Word-level sampler matched the per-bit reference distributionally
    /// (average cell changes and completed writes within 10%).
    pub sampler_equivalent: bool,
}

impl HotpathReport {
    /// True iff every correctness gate holds and the pooling micro
    /// clears [`LINE_WRITE_FLOOR`]. CI fails the bench job on `false`.
    pub fn gates_pass(&self) -> bool {
        self.stepper_identical
            && self.pooling_identical
            && self.sampler_equivalent
            && self.line_write_speedup >= LINE_WRITE_FLOOR
    }

    /// Full JSON document (written to `BENCH_hotpath.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"fpb-bench-hotpath/v1\",\n");
        s.push_str(&format!(
            "  \"workload\": {},\n",
            json_string(&self.workload)
        ));
        s.push_str(&format!(
            "  \"instructions_per_core\": {},\n",
            self.instructions_per_core
        ));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str("  \"wall\": {\n");
        s.push_str(&format!(
            "    \"engine_reference_ms\": {:.3},\n",
            self.engine_reference_ms
        ));
        s.push_str(&format!(
            "    \"engine_optimized_ms\": {:.3},\n",
            self.engine_optimized_ms
        ));
        s.push_str(&format!(
            "    \"engine_speedup\": {:.3},\n",
            self.engine_speedup
        ));
        s.push_str(&format!(
            "    \"sampler_perbit_ms\": {:.3},\n",
            self.sampler_perbit_ms
        ));
        s.push_str(&format!(
            "    \"sampler_words_ms\": {:.3},\n",
            self.sampler_words_ms
        ));
        s.push_str(&format!(
            "    \"sampler_speedup\": {:.3},\n",
            self.sampler_speedup
        ));
        s.push_str(&format!(
            "    \"line_write_fresh_ms\": {:.3},\n",
            self.line_write_fresh_ms
        ));
        s.push_str(&format!(
            "    \"line_write_pooled_ms\": {:.3},\n",
            self.line_write_pooled_ms
        ));
        s.push_str(&format!(
            "    \"line_write_speedup\": {:.3}\n",
            self.line_write_speedup
        ));
        s.push_str("  },\n");
        s.push_str("  \"pool\": {\n");
        s.push_str(&format!("    \"reuses\": {},\n", self.pool_reuses));
        s.push_str(&format!(
            "    \"fresh_allocations\": {}\n",
            self.pool_fresh_allocations
        ));
        s.push_str("  },\n");
        s.push_str("  \"gates\": {\n");
        s.push_str(&format!(
            "    \"stepper_identical\": {},\n",
            self.stepper_identical
        ));
        s.push_str(&format!(
            "    \"pooling_identical\": {},\n",
            self.pooling_identical
        ));
        s.push_str(&format!(
            "    \"sampler_equivalent\": {},\n",
            self.sampler_equivalent
        ));
        s.push_str(&format!("    \"line_write_floor\": {LINE_WRITE_FLOOR},\n"));
        s.push_str(&format!(
            "    \"line_write_ok\": {}\n",
            self.line_write_speedup >= LINE_WRITE_FLOOR
        ));
        s.push_str("  }\n}\n");
        s
    }
}

/// The write-saturated workload the engine race runs: streaming stores
/// over a footprint far beyond the LLC, so dirty evictions flood the PCM
/// write queue and the write path (change sampling, `LineWrite`
/// construction, round scheduling) dominates wall-clock — the component
/// this report exists to measure. Read-heavy cache traffic would only
/// dilute the comparison with work both paths share.
fn write_storm() -> fpb_trace::Workload {
    // Nearly write-only traffic with a high word-change probability: the
    // per-bit reference pays 32 Bernoulli draws per changed word, so the
    // denser the writes, the larger the share of runtime the optimized
    // word-level sampler removes. Reads are kept at a trickle — read
    // service costs the same on both paths and only dilutes the race.
    let profile = fpb_trace::WorkloadProfile::new(
        "storm",
        vec![fpb_trace::TrafficTier::new(0.5, 24.0, 512.0, true)],
        fpb_trace::DataProfile::new(fpb_trace::DataClass::Integer, 0.5),
    );
    fpb_trace::Workload {
        name: "write_storm",
        per_core: vec![profile; 8],
        table2_rpki: 0.5,
        table2_wpki: 24.0,
    }
}

/// Minimum-of-`repeats` wall-clock of the warmed simulation loop, plus
/// the (deterministic, repeat-invariant) metrics. Only stepping is timed
/// — system construction and the per-run core clone are excluded, since
/// they are identical for every write-path configuration.
fn time_engine(
    wl: &fpb_trace::Workload,
    cfg: &SystemConfig,
    setup: &SchemeSetup,
    opts: &SimOptions,
    cores: &[crate::frontend::CoreState],
    repeats: u32,
) -> (f64, crate::metrics::Metrics) {
    let mut sys = crate::engine::System::with_cores(wl, cfg, setup, opts, cores.to_vec());
    let t = Instant::now();
    while sys.step() {}
    let mut best = t.elapsed().as_secs_f64();
    let metrics = sys.finish();
    for _ in 1..repeats {
        let mut sys = crate::engine::System::with_cores(wl, cfg, setup, opts, cores.to_vec());
        let t = Instant::now();
        while sys.step() {}
        best = best.min(t.elapsed().as_secs_f64());
        let _ = sys.finish();
    }
    (best * 1e3, metrics)
}

/// Relative closeness within `tol` (distributional-equivalence gate).
fn within(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1e-9)
}

/// Races the optimized write path against the reference path on a
/// write-saturated workload and checks the correctness gates: heap
/// stepper and buffer pooling must reproduce the reference
/// *bit-for-bit*; the word-level sampler must match the per-bit
/// reference distributionally.
///
/// Always returns `Some` today; the `Option` keeps the signature aligned
/// with [`run_fixed_bench`] for the CLI.
pub fn run_hotpath_bench(instructions_per_core: u64) -> Option<HotpathReport> {
    let wl = write_storm();
    let cfg = SystemConfig::default();
    let setup = SchemeSetup::fpb(&cfg);
    let opts = SimOptions::with_instructions(instructions_per_core);
    let ref_opts = opts.reference_path();
    let cores = crate::engine::warm_cores(&wl, &cfg, &opts);

    // Full-engine race: optimized vs full reference path. The repeats
    // alternate between the two paths (min of each) so transient machine
    // load lands on both sides instead of skewing whichever block it
    // happened to overlap.
    let (o, m_opt) = time_engine(&wl, &cfg, &setup, &opts, &cores, 1);
    let (r, m_ref) = time_engine(&wl, &cfg, &setup, &ref_opts, &cores, 1);
    let (mut opt_ms, mut ref_ms) = (o, r);
    for _ in 1..HOTPATH_REPEATS {
        opt_ms = opt_ms.min(time_engine(&wl, &cfg, &setup, &opts, &cores, 1).0);
        ref_ms = ref_ms.min(time_engine(&wl, &cfg, &setup, &ref_opts, &cores, 1).0);
    }

    // Bit-for-bit gates: flip one reference knob at a time.
    let mut stepper_opts = opts;
    stepper_opts.reference_stepper = true;
    let (_, m_stepper) = time_engine(&wl, &cfg, &setup, &stepper_opts, &cores, 1);
    let mut alloc_opts = opts;
    alloc_opts.reference_alloc = true;
    let (_, m_alloc) = time_engine(&wl, &cfg, &setup, &alloc_opts, &cores, 1);
    let stepper_identical = m_opt == m_stepper;
    let pooling_identical = m_opt == m_alloc;

    // Distributional gate: the word-level sampler consumes the RNG
    // differently by design, so compare write-path aggregates, not bits.
    let sampler_equivalent = within(m_opt.avg_cell_changes(), m_ref.avg_cell_changes(), 0.10)
        && within(m_opt.pcm_writes as f64, m_ref.pcm_writes as f64, 0.10);

    // Pool effectiveness: a stepped run exposes the recycler's counters.
    let mut sys = crate::engine::System::with_cores(&wl, &cfg, &setup, &opts, cores.clone());
    while sys.step() {}
    let (pool_reuses, pool_fresh_allocations) = sys.pool_stats();
    let _ = sys.finish();

    // Component micro: change sampling, word-level vs per-bit reference.
    let profile = wl.per_core[0].data.clone();
    let line_bytes = cfg.pcm.line_bytes;
    let mut rng = fpb_types::SimRng::seed_from(0xDA7A);
    let mut cs = fpb_pcm::ChangeSet::empty();
    let t = Instant::now();
    for _ in 0..HOTPATH_MICRO_ITERS {
        profile.sample_change_set_into(line_bytes, &mut rng, &mut cs);
    }
    let sampler_words_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for _ in 0..HOTPATH_MICRO_ITERS {
        let _ = profile.sample_change_set_reference(line_bytes, &mut rng);
    }
    let sampler_perbit_ms = t.elapsed().as_secs_f64() * 1e3;

    // Component micro: LineWrite builds, pooled vs fresh allocation.
    // Alternated min-of-N like the engine race above: timing each side
    // in a single sequential block hands whichever runs second a warmed
    // allocator (and parks transient machine load on one side only),
    // which is exactly the order bias that once reported pooling as a
    // phantom 4% regression.
    let geom = fpb_pcm::DimmGeometry::new(cfg.pcm.chips, cfg.pcm.cells_per_line());
    let sampler = fpb_pcm::IterationSampler::new(fpb_types::MlcWriteModel::default());
    let cells: Vec<(u32, fpb_pcm::MlcLevel)> = (0..256u32)
        .map(|i| (i * 4, fpb_pcm::MlcLevel::L01))
        .collect();
    let mut pool = fpb_pcm::WriteBufferPool::new();
    let mut wrng = fpb_types::SimRng::seed_from(0x9C3);
    let (mut line_write_pooled_ms, mut line_write_fresh_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HOTPATH_REPEATS {
        let t = Instant::now();
        for _ in 0..HOTPATH_MICRO_ITERS {
            let w = pool.build(
                &cells,
                &geom,
                fpb_pcm::CellMapping::Bim,
                &sampler,
                &mut wrng,
                1,
            );
            pool.recycle(w);
        }
        line_write_pooled_ms = line_write_pooled_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for _ in 0..HOTPATH_MICRO_ITERS {
            let _ = fpb_pcm::LineWrite::from_cells(
                &cells,
                &geom,
                fpb_pcm::CellMapping::Bim,
                &sampler,
                &mut wrng,
                1,
            );
        }
        line_write_fresh_ms = line_write_fresh_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    Some(HotpathReport {
        workload: wl.name.to_string(),
        instructions_per_core,
        repeats: HOTPATH_REPEATS,
        engine_optimized_ms: opt_ms,
        engine_reference_ms: ref_ms,
        engine_speedup: ref_ms / opt_ms.max(1e-9),
        sampler_words_ms,
        sampler_perbit_ms,
        sampler_speedup: sampler_perbit_ms / sampler_words_ms.max(1e-9),
        line_write_pooled_ms,
        line_write_fresh_ms,
        line_write_speedup: line_write_fresh_ms / line_write_pooled_ms.max(1e-9),
        pool_reuses,
        pool_fresh_allocations,
        stepper_identical,
        pooling_identical,
        sampler_equivalent,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn fixed_bench_runs_and_matches() {
        let r = run_fixed_bench_repeats(2, 1_000, 1).unwrap();
        assert_eq!(r.points, 36);
        assert!(r.identical, "a scaling rung diverged from serial");
        assert_eq!(r.point_metrics.len(), 36);
        assert!(r.sim_cycles_total > 0);
        assert!(r.point_metrics.iter().all(|p| p.cycles > 0));
        // The ladder covers 1/2/4 exactly (2 is already a rung) — on a
        // multi-core machine; single-core hosts skip the parallel rungs
        // honestly instead.
        let rungs: Vec<usize> = r.scaling.iter().map(|p| p.jobs).collect();
        if crate::exec::effective_workers(2, r.points) > 1 {
            assert_eq!(rungs, vec![1, 2, 4]);
            assert!(r.skipped_rungs.is_empty());
        } else {
            assert_eq!(rungs, vec![1]);
            assert_eq!(r.skipped_rungs.len(), 2);
        }
        // Reuse bookkeeping: the grid asks for 2 runs per point; dedup
        // must collapse at least the shared-baseline classes, and the
        // warm cache pass must splice everything.
        assert_eq!(r.reuse.runs_total, 2 * r.points);
        assert!(r.reuse.runs_unique < r.reuse.runs_total);
        assert!(r.reuse.dedup_ratio() > 1.0);
        assert!(r.no_reuse_serial_ms > 0.0);
        assert_eq!(r.result_cache.warm_simulated, 0, "warm pass re-simulated");
        assert_eq!(r.result_cache.warm_hits, r.reuse.runs_unique);
        assert!(r.result_cache.cold_ms > 0.0 && r.result_cache.warm_ms > 0.0);
        assert!((r.scaling[0].speedup - 1.0).abs() < 1e-9, "serial rung is the reference");
        assert!(r.scaling.iter().all(|p| p.ms > 0.0 && p.points_per_sec > 0.0));
        assert!(r.detected_cores >= 1);
        assert_eq!(r.repeats, 1);
    }

    #[test]
    fn requested_jobs_joins_the_ladder() {
        if crate::exec::effective_workers(2, 36) <= 1 {
            return; // single-core host: parallel rungs are skipped
        }
        let r = run_fixed_bench_repeats(3, 800, 1).unwrap();
        let rungs: Vec<usize> = r.scaling.iter().map(|p| p.jobs).collect();
        assert_eq!(rungs, vec![1, 2, 3, 4]);
        // The top-level wall numbers describe the requested rung.
        let rung = r.scaling.iter().find(|p| p.jobs == 3).unwrap();
        assert!((rung.ms - r.parallel_ms).abs() < 1e-9);
        assert!((rung.speedup - r.speedup).abs() < 1e-9);
    }

    #[test]
    fn efficiency_gate_reads_the_4_job_rung() {
        if crate::exec::effective_workers(2, 36) <= 1 {
            return; // single-core host: the 4-job rung is skipped
        }
        let r = run_fixed_bench_repeats(2, 800, 1).unwrap();
        assert_eq!(r.efficiency.jobs, 4);
        let expect = crate::exec::effective_workers(4, r.points);
        assert_eq!(r.efficiency.effective_workers, expect);
        assert!(
            (r.efficiency.required_speedup - required_speedup(expect)).abs() < 1e-9,
            "gate floor must match the effective worker count"
        );
        let rung4 = r.scaling.iter().find(|p| p.jobs == 4).unwrap();
        assert!((r.efficiency.actual_speedup - rung4.speedup).abs() < 1e-9);
    }

    #[test]
    fn required_speedup_is_core_count_aware() {
        assert!((required_speedup(1) - 0.85).abs() < 1e-9);
        assert!((required_speedup(2) - 1.3).abs() < 1e-9);
        assert!((required_speedup(3) - 1.6).abs() < 1e-9);
        assert!((required_speedup(4) - 2.0).abs() < 1e-9);
        assert!((required_speedup(64) - 2.0).abs() < 1e-9);
        // Monotone: more parallelism never lowers the bar.
        for w in 1..8 {
            assert!(required_speedup(w + 1) >= required_speedup(w));
        }
    }

    #[test]
    fn json_has_wall_and_metric_sections() {
        let r = run_fixed_bench_repeats(2, 800, 1).unwrap();
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"fpb-bench-sweep/v1\""));
        assert!(j.contains("\"wall\""));
        assert!(j.contains("\"speedup\""));
        assert!(j.contains("\"detected_cores\": "));
        assert!(j.contains("\"repeats\": 1"));
        assert!(j.contains("\"scaling\": ["));
        assert!(j.contains("{\"jobs\": 1, \"ms\": "));
        // Parallel rungs appear either in the scaling curve (multi-core)
        // or in the skip record (single effective worker) — never lost.
        assert!(
            j.contains("{\"jobs\": 4, \"ms\": ")
                || j.contains("{\"jobs\": 4, \"reason\": "),
            "the 4-job rung vanished from both scaling and skipped_rungs"
        );
        assert!(j.contains("\"efficiency_gate\": {"));
        assert!(j.contains("\"effective_workers\": "));
        assert!(j.contains("\"required_speedup\": "));
        assert!(j.contains("\"point_metrics\""));
        assert!(j.contains("\"identical\": true"));
        assert!(j.contains("\"points_unique\": "));
        assert!(j.contains("\"dedup_ratio\": "));
        assert!(j.contains("\"no_reuse_serial_ms\": "));
        assert!(j.contains("\"result_cache\": {\"cold_ms\": "));
        assert!(j.contains("\"skipped_rungs\": ["));
        // The metric subset must not mention wall-clock fields.
        let m = r.metric_fields_json(0);
        assert!(!m.contains("_ms"));
        assert!(!m.contains("per_sec"));
        assert!(!m.contains("jobs"));
        assert!(!m.contains("scaling"));
        assert!(!m.contains("detected_cores"));
        assert!(!m.contains("efficiency"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn hotpath_bench_gates_hold_and_serialize() {
        // The correctness gates are deterministic; the line-write speedup
        // is wall-clock, so its floor is tested on hand-built reports
        // below instead of on this run.
        let r = run_hotpath_bench(4_000).unwrap();
        assert!(r.stepper_identical, "heap stepper diverged from scan");
        assert!(r.pooling_identical, "pooled buffers diverged from fresh");
        assert!(r.sampler_equivalent, "sampler drifted distributionally");
        assert!(r.engine_optimized_ms > 0.0 && r.engine_reference_ms > 0.0);
        assert!(r.pool_reuses > 0, "pool never recycled a buffer");
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"fpb-bench-hotpath/v1\""));
        assert!(j.contains("\"engine_speedup\""));
        assert!(j.contains("\"stepper_identical\": true"));
        assert!(j.contains("\"pooling_identical\": true"));
        assert!(j.contains("\"sampler_equivalent\": true"));
        assert!(j.contains("\"line_write_floor\": 0.97"));
        assert!(j.contains("\"line_write_ok\": "));
    }

    /// A report with every correctness gate holding and the given
    /// line-write speedup.
    fn hotpath_report(line_write_speedup: f64) -> HotpathReport {
        HotpathReport {
            workload: "write_storm".to_string(),
            instructions_per_core: 4_000,
            repeats: 3,
            engine_optimized_ms: 10.0,
            engine_reference_ms: 20.0,
            engine_speedup: 2.0,
            sampler_words_ms: 1.0,
            sampler_perbit_ms: 10.0,
            sampler_speedup: 10.0,
            line_write_pooled_ms: 1.0,
            line_write_fresh_ms: line_write_speedup,
            line_write_speedup,
            pool_reuses: 1,
            pool_fresh_allocations: 1,
            stepper_identical: true,
            pooling_identical: true,
            sampler_equivalent: true,
        }
    }

    #[test]
    fn line_write_floor_gates_the_report() {
        let below = hotpath_report(0.96);
        assert!(!below.gates_pass(), "0.96 is below the 0.97 floor");
        assert!(below.to_json().contains("\"line_write_ok\": false"));
        let at = hotpath_report(0.97);
        assert!(at.gates_pass(), "the floor itself passes");
        assert!(at.to_json().contains("\"line_write_ok\": true"));
        // The floor never excuses a failed correctness gate.
        let diverged = HotpathReport { stepper_identical: false, ..hotpath_report(1.5) };
        assert!(!diverged.gates_pass());
    }
}
