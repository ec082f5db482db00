//! Traced run of the FPB benchmark.
//!
//! Executes one benchmark op — the same `fpb` command lines the untraced
//! run times — through the library's public functions, recording a span
//! at every layer boundary and counts at the same boundaries. Spans stay
//! in memory and are written out once the op ends.
//!
//! ```sh
//! perfbench-tracer SPANS_OUT :: run --workload mcf_m ... [:: inspect replay ...]
//! ```
//!
//! Prints, on stdout, one `row <label> <numbers>` line per simulated or
//! replayed command (the metrics row `fpb` itself prints, for the
//! benchmark's cross-check) and, last, one JSON object of per-layer
//! metrics. Exits 1 if any command fails.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fpb::cli::{self, Command, InspectArgs, InspectVerb, RunArgs, SweepControl};
use fpb::pcm::ChangeSet;
use fpb::sim::engine::System;
use fpb::sim::frontend::CoreState;
use fpb::sim::inspect::{read_event_log, FileSink, ReplayedRun, StallReport};
use fpb::sim::journal::{read_journal, JournalMode};
use fpb::sim::sweep::{
    enumerate_grid, run_sweep_supervised, Axis, ReuseOptions, SupervisedSweepRequest,
};
use fpb::sim::{
    effective_workers, run_workload_recorded, CancelToken, EventSink, Metrics, NullSink,
    ResultCache, SchemeSetup, SimOptions, SupervisePolicy,
};
use fpb::trace::{catalog, CoreTraceGenerator, Workload};
use fpb::types::{CoreId, SimRng, SystemConfig};

/// Calls per micro-probe of the trace layer.
const NEXT_OP_CALLS: u32 = 200_000;
const CHANGE_SET_CALLS: u32 = 20_000;

/// Linux reports process CPU time in clock ticks of this rate.
const CLOCK_TICKS_PER_S: f64 = 100.0;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder plus the per-layer counters.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `layer.what` whose parent is the span
    /// open when it starts, and adds the span's seconds to metric `key`
    /// (`None`: span only).
    fn span<T>(
        &mut self,
        name: &'static str,
        key: Option<&'static str>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        if let Some(key) = key {
            self.add(key, self.secs(id));
        }
        out
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.metrics.entry(key).or_insert(0.0) += v;
    }

    fn set(&mut self, key: &'static str, v: f64) {
        self.metrics.insert(key, v);
    }

    fn get(&self, key: &str) -> f64 {
        self.metrics.get(key).copied().unwrap_or(0.0)
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Self time per layer over the spans under `op.*` roots (probes sit
    /// outside the op and are excluded): a span's duration minus the time
    /// its children cover. Children never overlap — the op runs on this
    /// one thread.
    fn layer_self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !self.spans[self.root_of(i)].name.starts_with("op.") {
                continue;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(format!("{layer}.self_s")).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Seconds under `op.*` roots: the traced op's wall, probes excluded.
    fn op_secs(&self) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && self.spans[i].name.starts_with("op."))
            .map(|i| self.secs(i))
            .sum()
    }

    fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]\n", rows.join(",\n"))
    }
}

/// The metrics row `fpb` prints for a run (label, CPI, reads, writes,
/// burst%, read latency, speedup), prefixed with `row `.
fn row(label: &str, m: &Metrics) -> String {
    format!(
        "row {:<16} {:>8.2} {:>9} {:>9} {:>7.1}% {:>10.0} {:>9.3}",
        label,
        m.cpi(),
        m.pcm_reads,
        m.pcm_writes,
        m.burst_fraction() * 100.0,
        m.avg_read_latency(),
        1.0
    )
}

fn workload(name: &str) -> Result<Workload, String> {
    catalog::workload(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn resolve(ra: &RunArgs) -> Result<(Workload, SimOptions, SchemeSetup), String> {
    let setup = cli::build_scheme(&ra.scheme, ra).map_err(|e| e.to_string())?;
    Ok((workload(&ra.workload)?, cli::sim_options(ra), setup))
}

/// Builds and warms the cores exactly as `fpb_sim::engine::warm_cores`
/// does (same RNG draws in the same order), with each core's
/// construction and warm-up in spans of their own.
fn warm(
    t: &mut Tracer,
    wl: &Workload,
    cfg: &SystemConfig,
    opts: &SimOptions,
) -> Result<Vec<CoreState>, String> {
    let mut root = SimRng::seed_from(cfg.seed);
    let warmup = opts.warmup_accesses.unwrap_or(60_000);
    let mut cores = Vec::with_capacity(usize::from(cfg.cores));
    for i in 0..cfg.cores {
        let profile = wl
            .per_core
            .get(usize::from(i))
            .ok_or("workload has too few core profiles")?
            .clone();
        let mut core = t
            .span("frontend.construct", Some("frontend.construct_s"), |_| {
                CoreState::with_mode(
                    profile,
                    CoreId::new(i),
                    &cfg.cache,
                    &mut root,
                    opts.full_hierarchy,
                )
            })
            .map_err(|e| e.to_string())?;
        let mut wrng = root.fork(0xF111 + u64::from(i));
        t.span("frontend.warm_up", Some("frontend.warm_up_s"), |_| {
            core.warm_up(warmup, &mut wrng)
        });
        let stats = core.llc_stats();
        t.add("cache.accesses", stats.accesses() as f64);
        t.add("cache.dirty_evictions", stats.dirty_evictions() as f64);
        cores.push(core);
    }
    t.add("frontend.warm_sets", 1.0);
    Ok(cores)
}

fn clone_cores(t: &mut Tracer, cores: &[CoreState]) -> Vec<CoreState> {
    t.span("frontend.clone", Some("frontend.clone_s"), |_| {
        cores.to_vec()
    })
}

/// Steps a built system to completion, stepping and finish in separate
/// engine spans, and records the engine, core and pcm counts.
fn drive<E: EventSink>(
    t: &mut Tracer,
    mut sys: System<SchemeSetup, E>,
) -> Result<(Metrics, E), String> {
    let mut steps = 0u64;
    t.span(
        "engine.step",
        Some("engine.step_s"),
        |_| -> Result<(), String> {
            while sys.try_step().map_err(|e| e.to_string())? {
                steps += 1;
            }
            Ok(())
        },
    )?;
    t.add("engine.steps", steps as f64);
    let (reuses, fresh) = sys.pool_stats();
    t.add("engine.pool_reuses", reuses as f64);
    t.add("engine.pool_fresh", fresh as f64);
    let (m, sink) = t.span("engine.finish", Some("engine.finish_s"), |_| {
        sys.finish_with_sink()
    });
    t.add("engine.sim_cycles", m.cycles as f64);
    t.add("engine.pcm_reads", m.pcm_reads as f64);
    t.add("engine.pcm_writes", m.pcm_writes as f64);
    t.add("engine.write_rounds", m.write_rounds as f64);
    t.add("engine.burst_cycles", m.burst_cycles as f64);
    t.add("core.admissions", m.power.admissions() as f64);
    t.add(
        "core.admission_failures",
        m.power.admission_failures() as f64,
    );
    t.add("core.advance_stalls", m.power.advance_stalls() as f64);
    t.add("core.gcp_grants", m.power.gcp_grants() as f64);
    t.add(
        "core.multi_reset_splits",
        m.power.multi_reset_splits() as f64,
    );
    t.add("pcm.cells_written", m.cells_written as f64);
    Ok((m, sink))
}

/// `fpb run`: warm the cores, clone them into the system (as
/// `run_workload_warmed` does), build, step, finish.
fn traced_run(t: &mut Tracer, ra: &RunArgs) -> Result<(), String> {
    let (wl, opts, setup) = resolve(ra)?;
    let m = t.span("op.run", None, |t| -> Result<Metrics, String> {
        let cores = warm(t, &wl, &ra.cfg, &opts)?;
        let cores = clone_cores(t, &cores);
        t.add("frontend.clones", 1.0);
        let sys = t.span("engine.build", Some("engine.build_s"), |_| {
            System::with_cores(&wl, &ra.cfg, &setup, &opts, cores)
        });
        Ok(drive(t, sys)?.0)
    })?;
    println!("{}", row(&setup.label, &m));
    Ok(())
}

/// `fpb inspect record`: the run of `run_workload_recorded` with a
/// `FileSink`, decomposed; then, outside the op, the same run with the
/// sink compiled out as the base of the recording overhead.
fn traced_record(t: &mut Tracer, ia: &InspectArgs, log: &Path) -> Result<(), String> {
    let (wl, opts, setup) = resolve(&ia.run)?;
    let cfg = &ia.run.cfg;
    let spec = cli::scheme_spec(&ia.run.scheme, &ia.run).map_err(|e| e.to_string())?;
    let meta = format!(
        "fpb-inspect workload={} spec={} instructions={} seed={}",
        ia.run.workload, spec, ia.run.instructions, cfg.seed
    );
    let (m, events) = t.span("op.inspect", None, |t| {
        t.span(
            "inspect.record",
            Some("inspect.record_s"),
            |t| -> Result<(Metrics, u64), String> {
                let cores = warm(t, &wl, cfg, &opts)?;
                let sink = FileSink::create(log, &meta).map_err(|e| e.to_string())?;
                let sys = t.span("engine.build", Some("engine.build_s"), |_| {
                    System::with_cores_and_sink(&wl, cfg, &setup, &opts, cores, sink)
                });
                let (m, sink) = drive(t, sys)?;
                Ok((m, sink.finish().map_err(|e| e.to_string())?))
            },
        )
    })?;
    t.add("inspect.events", events as f64);
    let bytes = std::fs::metadata(log).map_err(|e| e.to_string())?.len();
    t.add("inspect.log_bytes", bytes as f64);
    println!("{}", row(&setup.label, &m));
    let (null, _) = t
        .span("probe.null_sink", Some("inspect.null_sink_s"), |_| {
            run_workload_recorded(&wl, cfg, &setup, &opts, NullSink)
        })
        .map_err(|e| e.to_string())?;
    if null != m {
        return Err("the null-sink run diverged from the recorded run".into());
    }
    Ok(())
}

/// `fpb inspect replay|stalls`: read the log, then replay it into
/// metrics or attribute its stalls.
fn traced_read(t: &mut Tracer, ia: &InspectArgs, log: &Path) -> Result<(), String> {
    let replayed = t.span("op.inspect", None, |t| -> Result<Option<Metrics>, String> {
        let log = t
            .span("inspect.read", Some("inspect.read_s"), |_| {
                read_event_log(log)
            })
            .map_err(|e| e.to_string())?;
        if ia.require_complete && !log.complete {
            return Err("event log is incomplete".into());
        }
        if ia.verb == InspectVerb::Stalls {
            let text = t.span("inspect.stalls", Some("inspect.stalls_s"), |_| {
                StallReport::analyze(&log.events).render(ia.top)
            });
            black_box(text);
            return Ok(None);
        }
        let run = t.span("inspect.replay", Some("inspect.replay_s"), |_| {
            ReplayedRun::from_events(&log.events)
        });
        if let Some(path) = &ia.metrics_out {
            std::fs::write(path, run.metrics.to_json()).map_err(|e| e.to_string())?;
        }
        Ok(Some(run.metrics))
    })?;
    if let Some(m) = replayed {
        println!("{}", row("replayed", &m));
    }
    Ok(())
}

/// Process CPU time of all threads, from `/proc/self/stat`.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // After the parenthesised command name, utime and stime are the 12th
    // and 13th fields (14th and 15th of the whole line).
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS_PER_S)
}

/// `fpb sweep`, cold (no cache file yet) or warm (cache present), built
/// into the same request `fpb sweep` sends.
fn traced_sweep(
    t: &mut Tracer,
    args: &RunArgs,
    axes: &[(String, String)],
    control: &SweepControl,
) -> Result<(), String> {
    let wl = workload(&args.workload)?;
    let opts = cli::sim_options(args);
    let built: Vec<Axis> = axes
        .iter()
        .map(|(n, vs)| cli::build_axis(n, vs))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let spec = cli::scheme_spec(&args.scheme, args).map_err(|e| e.to_string())?;
    let cache = PathBuf::from(
        control
            .result_cache
            .as_deref()
            .ok_or("sweep needs --result-cache")?,
    );
    let cold = !cache.exists();
    let jobs = cli::effective_jobs(args.jobs);
    let cpu0 = cpu_seconds();
    let id = t.spans.len();
    let run = t.span("op.sweep", None, |t| {
        t.span("sweep.run", Some("sweep.wall_s"), |_| {
            run_sweep_supervised(SupervisedSweepRequest {
                workload: &wl,
                base_cfg: args.cfg.clone(),
                axes: &built,
                scheme: &spec,
                baseline: "dimm-chip",
                opts,
                policy: SupervisePolicy {
                    jobs,
                    ..SupervisePolicy::default()
                },
                journal: control
                    .journal
                    .as_ref()
                    .map(|p| JournalMode::Fresh(PathBuf::from(p))),
                cancel: CancelToken::new(),
                cancel_after: None,
                inject_panic: None,
                reuse: ReuseOptions {
                    dedup: true,
                    cache: Some(cache.clone()),
                },
            })
        })
    });
    let wall = t.secs(id);
    let run = run.map_err(|e| e.to_string())?;
    if !run.complete() {
        return Err("sweep left points incomplete".into());
    }
    if let Some(path) = &control.json_out {
        std::fs::write(path, run.to_json()).map_err(|e| e.to_string())?;
    }
    let r = run.reuse;
    if !cold {
        t.set(
            "sweep.cache_hit_ratio",
            r.cache_hits as f64 / r.runs_unique.max(1) as f64,
        );
        return Ok(());
    }
    if let Some((c0, c1)) = cpu0.zip(cpu_seconds()) {
        t.set("exec.cpu_per_wall", (c1 - c0) / wall);
    }
    t.set(
        "exec.effective_workers",
        effective_workers(jobs, r.simulated) as f64,
    );
    t.set("sweep.runs_total", r.runs_total as f64);
    t.set("sweep.runs_unique", r.runs_unique as f64);
    t.set("sweep.dedup_ratio", r.dedup_ratio());
    t.set("sweep.simulated", r.simulated as f64);
    // Every simulated unit clones its warm set into its system.
    t.set("frontend.clones", r.simulated as f64);
    probe_store(t, &cache, control.journal.as_deref().map(Path::new))?;
    probe_sweep_frontend(t, &wl, &args.cfg, &built, &opts)
}

/// Probes the result store and journal the cold pass left behind: the
/// load the warm pass pays, a save of the same records (to a copy), and
/// a journal read.
fn probe_store(t: &mut Tracer, cache: &Path, journal: Option<&Path>) -> Result<(), String> {
    let loaded = t.span("probe.store", None, |t| {
        t.span("resultcache.load", Some("resultcache.load_s"), |_| {
            ResultCache::load(cache)
        })
    });
    t.set("resultcache.records", loaded.len() as f64);
    let bytes = std::fs::metadata(cache).map_err(|e| e.to_string())?.len();
    t.set("resultcache.bytes", bytes as f64);
    let copy = cache.with_extension("probe");
    std::fs::copy(cache, &copy).map_err(|e| e.to_string())?;
    let mut copied = ResultCache::load(&copy);
    // `save` skips a store with nothing new; one extra record makes it
    // write every record, as the cold pass's save does.
    copied.insert("perfbench save probe".into(), Metrics::default());
    t.span("probe.store", None, |t| {
        t.span("resultcache.save", Some("resultcache.save_s"), |_| {
            copied.save()
        })
    })
    .map_err(|e| e.to_string())?;
    std::fs::remove_file(&copy).map_err(|e| e.to_string())?;
    if let Some(j) = journal {
        let contents = t
            .span("probe.store", None, |t| {
                t.span("journal.read", Some("journal.read_s"), |_| read_journal(j))
            })
            .map_err(|e| e.to_string())?;
        t.set("journal.records", contents.records.len() as f64);
        let bytes = std::fs::metadata(j).map_err(|e| e.to_string())?.len();
        t.set("journal.bytes", bytes as f64);
    }
    Ok(())
}

/// Probes the front-end work the sweep does inside the library: one warm
/// set per distinct warm key of the grid (cache geometry, core count and
/// seed, the key `fpb_sim::sweep` dedups on), and one clone of each set;
/// `frontend.clone_s` becomes the mean seconds per clone.
fn probe_sweep_frontend(
    t: &mut Tracer,
    wl: &Workload,
    base: &SystemConfig,
    axes: &[Axis],
    opts: &SimOptions,
) -> Result<(), String> {
    let grid = enumerate_grid(base, axes).map_err(|e| e.to_string())?;
    let mut keys: Vec<String> = Vec::new();
    for (_, cfg) in &grid {
        let key = format!("{:?}|{}|{}", cfg.cache, cfg.cores, cfg.seed);
        if keys.contains(&key) {
            continue;
        }
        keys.push(key);
        let cores = t.span("probe.warm", None, |t| warm(t, wl, cfg, opts))?;
        black_box(t.span("probe.clone", None, |t| clone_cores(t, &cores)));
    }
    let per_clone = t.get("frontend.clone_s") / keys.len().max(1) as f64;
    t.set("frontend.clone_s", per_clone);
    Ok(())
}

/// Micro-probes of the trace layer on the workload's first core profile:
/// one generator operation, and one line's change-set sample.
fn probe_trace(t: &mut Tracer, ra: &RunArgs) -> Result<(), String> {
    let wl = workload(&ra.workload)?;
    let profile = wl
        .per_core
        .first()
        .ok_or("workload has no profiles")?
        .clone();
    let mut rng = SimRng::seed_from(ra.cfg.seed);
    let mut gen = CoreTraceGenerator::for_core(profile.clone(), CoreId::new(0), &mut rng);
    let id = t.spans.len();
    t.span("probe.next_op", None, |_| {
        for _ in 0..NEXT_OP_CALLS {
            black_box(gen.next_op());
        }
    });
    t.set(
        "trace.next_op_ns",
        t.secs(id) * 1e9 / f64::from(NEXT_OP_CALLS),
    );
    let mut cs = ChangeSet::default();
    let id = t.spans.len();
    t.span("probe.change_set", None, |_| {
        for _ in 0..CHANGE_SET_CALLS {
            profile
                .data
                .sample_change_set_into(ra.cfg.pcm.line_bytes, &mut rng, &mut cs);
            black_box(&cs);
        }
    });
    t.set(
        "trace.sample_change_set_ns",
        t.secs(id) * 1e9 / f64::from(CHANGE_SET_CALLS),
    );
    Ok(())
}

/// Ratios derived from the counts, once every command has run.
fn derive(t: &mut Tracer) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cycles = t.get("engine.sim_cycles");
    let step_ns = t.get("engine.step_s") * 1e9;
    t.set(
        "cache.access_ns",
        ratio(t.get("frontend.warm_up_s") * 1e9, t.get("cache.accesses")),
    );
    t.set("engine.step_ns", ratio(step_ns, t.get("engine.steps")));
    t.set(
        "engine.host_ns_per_sim_kcycle",
        ratio(step_ns, cycles / 1000.0),
    );
    let reuses = t.get("engine.pool_reuses");
    t.set(
        "engine.pool_reuse_ratio",
        ratio(reuses, reuses + t.get("engine.pool_fresh")),
    );
    t.set(
        "engine.burst_fraction",
        ratio(t.get("engine.burst_cycles"), cycles),
    );
    let admits = t.get("core.admissions");
    t.set(
        "core.admit_success_ratio",
        ratio(admits, admits + t.get("core.admission_failures")),
    );
    t.set(
        "pcm.cells_per_write",
        ratio(t.get("pcm.cells_written"), t.get("engine.pcm_writes")),
    );
    t.set(
        "inspect.record_overhead",
        ratio(t.get("inspect.record_s"), t.get("inspect.null_sink_s")),
    );
    t.set(
        "inspect.bytes_per_event",
        ratio(t.get("inspect.log_bytes"), t.get("inspect.events")),
    );
    let op_s = t.op_secs();
    t.set("bench.traced_op_s", op_s);
}

fn run_commands(t: &mut Tracer, commands: &[Vec<String>]) -> Result<(), String> {
    let mut probed = false;
    for args in commands {
        let cmd = cli::parse(args).map_err(|e| e.to_string())?;
        let simulated = match &cmd {
            Command::Run(ra) => {
                traced_run(t, ra)?;
                Some(ra)
            }
            Command::Sweep {
                args,
                axes,
                control,
                ..
            } => {
                traced_sweep(t, args, axes, control)?;
                Some(args)
            }
            Command::Inspect(ia) => {
                let log = PathBuf::from(ia.log.as_deref().ok_or("inspect needs --log")?);
                match ia.verb {
                    InspectVerb::Record => traced_record(t, ia, &log)?,
                    InspectVerb::Replay | InspectVerb::Stalls => traced_read(t, ia, &log)?,
                    InspectVerb::Break | InspectVerb::Lineage => {
                        return Err("inspect verb not part of the benchmark".into())
                    }
                }
                (ia.verb == InspectVerb::Record).then_some(&ia.run)
            }
            _ => return Err(format!("command not part of the benchmark: {args:?}")),
        };
        if let (Some(ra), false) = (simulated, probed) {
            probe_trace(t, ra)?;
            probed = true;
        }
    }
    derive(t);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((spans_out, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-tracer SPANS_OUT :: FPB_ARGS [:: FPB_ARGS ...]");
        return ExitCode::FAILURE;
    };
    let commands: Vec<Vec<String>> = rest
        .split(|a| a == "::")
        .filter(|c| !c.is_empty())
        .map(<[String]>::to_vec)
        .collect();
    let mut t = Tracer::new();
    if let Err(e) = run_commands(&mut t, &commands) {
        eprintln!("perfbench-tracer: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(spans_out, t.spans_json()) {
        eprintln!("perfbench-tracer: write {spans_out}: {e}");
        return ExitCode::FAILURE;
    }
    let mut fields: Vec<String> = t
        .metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:e}"))
        .collect();
    fields.extend(
        t.layer_self_times()
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:e}")),
    );
    println!("{{{}}}", fields.join(", "));
    ExitCode::SUCCESS
}
