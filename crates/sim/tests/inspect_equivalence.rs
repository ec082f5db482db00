//! Record/replay equivalence: recording is free, and the recorded
//! lifecycle event stream is a *complete* record of a run.
//!
//! Live runs and replays tally through the same fold
//! (`Metrics::apply`), so these tests do not check the counters'
//! values — `tests/metrics_pinned.rs` pins those. They check the three
//! guarantees `fpb inspect` rests on:
//!
//! 1. **Observation is free** — recording through a sink must not
//!    perturb the simulation: recorded-run metrics are bit-identical to
//!    a plain run's.
//! 2. **The stream is complete** — folding the recorded events through
//!    [`ReplayedRun`] reproduces the live run's [`fpb_sim::Metrics`]
//!    byte-for-byte (`to_json` compared verbatim) for every registered
//!    paper-figure spec and under full fault injection: every event a
//!    counter reads reached the sink.
//! 3. **Replay is lossless** — the timeline reconstructed from
//!    `StepSnapshot` events equals what [`Timeline::record`] samples on
//!    a live system.

use fpb_sim::inspect::{MemorySink, ReplayedRun};
use fpb_sim::scheme::SchemeRegistry;
use fpb_sim::timeline::Timeline;
use fpb_sim::{run_workload, run_workload_recorded, SimOptions, System};
use fpb_trace::catalog;
use fpb_types::{FaultConfig, SystemConfig};

const INSTRUCTIONS: u64 = 20_000;

fn opts() -> SimOptions {
    SimOptions::with_instructions(INSTRUCTIONS)
}

/// A fault mix exercising every recovery path the events must cover:
/// verify failures deep enough to remap, brownouts long enough to
/// degrade, stuck-at marking, and the watchdog.
fn faulty_cfg() -> SystemConfig {
    SystemConfig::default().with_faults(FaultConfig {
        verify_fail_prob: 0.3,
        stuck_cell_prob: 0.2,
        stuck_wear_threshold: 1,
        brownout_period: 120_000,
        brownout_duration: 50_000,
        max_retries: 2,
        retry_backoff_cycles: 100,
        watchdog_iterations: 200,
        degraded_after_cycles: 10_000,
        ..FaultConfig::default()
    })
}

#[test]
fn all_paper_figure_specs_derive_byte_identical_metrics() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("mcf_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let specs = registry.paper_figure_specs();
    assert!(specs.len() >= 21, "paper figure registry shrank: {}", specs.len());
    for spec in specs {
        let setup = registry.build(spec, &cfg).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let live = run_workload(&wl, &cfg, &setup, &opts());
        let (recorded, sink) =
            run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new())
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(recorded, live, "{spec}: recording perturbed the run");
        let derived = ReplayedRun::from_events(sink.events()).metrics;
        assert_eq!(
            derived.to_json(),
            live.to_json(),
            "{spec}: replayed metrics drifted from the live run"
        );
        assert_eq!(derived, live, "{spec}: structural mismatch");
    }
}

#[test]
fn fault_injected_run_derives_byte_identical_metrics() {
    let cfg = faulty_cfg();
    let wl = catalog::workload("mcf_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let setup = registry.build("fpb", &cfg).expect("fpb spec");
    let live = run_workload(&wl, &cfg, &setup, &opts());
    // The fault mix must actually fire, or this test proves nothing.
    assert!(live.faults.verify_failures > 0, "{:?}", live.faults);
    assert!(live.faults.brownout_windows > 0, "{:?}", live.faults);
    let (recorded, sink) =
        run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new()).expect("recorded");
    assert_eq!(recorded, live, "recording perturbed the faulty run");
    let derived = ReplayedRun::from_events(sink.events()).metrics;
    assert_eq!(derived.to_json(), live.to_json());
    assert_eq!(derived.faults, live.faults, "fault counters must derive exactly");
}

#[test]
fn replayed_timeline_matches_live_recording() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("lbm_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let setup = registry.build("fpb", &cfg).expect("fpb spec");
    let live = Timeline::record(System::new(&wl, &cfg, &setup, &opts()));
    let (_, sink) =
        run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new()).expect("recorded");
    let replayed = ReplayedRun::from_events(sink.events());
    assert_eq!(
        replayed.timeline.samples(),
        live.samples(),
        "replay must reconstruct the sampled timeline exactly"
    );
    assert_eq!(replayed.timeline.metrics(), live.metrics());
    // The rendered chart — the user-facing artifact — is identical too.
    assert_eq!(
        replayed.timeline.render(60).expect("render"),
        live.render(60).expect("render")
    );
}

#[test]
fn event_stream_round_trips_through_the_wire_codec() {
    // Every event an actual run emits must survive encode/decode — the
    // on-disk log stores exactly these lines.
    use fpb_sim::inspect::LifecycleEvent;
    let cfg = faulty_cfg();
    let wl = catalog::workload("mcf_m").expect("workload");
    let registry = SchemeRegistry::standard();
    let setup = registry.build("fpb+wc+wp+wt8", &cfg).expect("spec");
    let (_, sink) =
        run_workload_recorded(&wl, &cfg, &setup, &opts(), MemorySink::new()).expect("recorded");
    assert!(!sink.events().is_empty());
    for ev in sink.events() {
        let line = ev.encode();
        assert_eq!(
            LifecycleEvent::decode(&line).as_ref(),
            Some(ev),
            "wire round-trip failed for {line}"
        );
    }
}
