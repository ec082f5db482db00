//! Absolute metrics pins: an oracle that does not share code with the
//! metrics fold.
//!
//! Live runs and replays tally through the same `Metrics::apply`, so
//! comparing the two can no longer catch a wrong counter — both sides
//! would be wrong together. This suite pins each run's full
//! `Metrics::to_json()` document to a recorded 64-bit FNV-1a digest
//! instead: every paper-figure spec on one warm `mcf_m` set, plus a
//! fault mix that exercises verify failures, remaps, stuck-at marking,
//! brownouts, degraded mode and the watchdog.
//!
//! A digest that moves means simulated results moved. That is a results
//! change, not a refactor: re-pin only with the cause named in the
//! change log. On failure the test lists every spec with its new digest
//! and JSON, so the whole table can be reviewed at once.

use fpb::sim::engine::{run_workload_warmed, warm_cores};
use fpb::sim::journal::fingerprint64;
use fpb::sim::{SchemeRegistry, SimOptions};
use fpb::trace::catalog;
use fpb::types::{FaultConfig, SystemConfig};

const INSTRUCTIONS: u64 = 20_000;

/// The fault mix of `crates/sim/tests/inspect_equivalence.rs`.
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

/// `(spec, fingerprint64(Metrics::to_json()))` for each paper-figure
/// spec in registry order, then the fault-mix run under `fpb` (labelled
/// `faults:fpb`).
const PINNED: &[(&str, u64)] = &[
    ("ideal", 0x6371b7a36b63a637),
    ("dimm-only", 0x03a007c876224b2c),
    ("dimm-chip", 0xde5d283646d6c97a),
    ("pwl", 0xde5d283646d6c97a),
    ("1.5xlocal", 0xafcbec750dc6f3cf),
    ("2xlocal", 0xafcbec750dc6f3cf),
    ("gcp:ne:0.5", 0xabccff19191fcbf0),
    ("gcp:vim:0.5", 0x88c57d510a6ef75f),
    ("gcp:bim:0.5", 0x1f906201b5ed936b),
    ("gcp:ne:0.95", 0x4c2d20bbb56344a0),
    ("gcp-ipm", 0xec212ea7aa777cc3),
    ("fpb-mr:2", 0x863359da0f618d1d),
    ("fpb-mr:3", 0x0829d749c0290156),
    ("fpb-mr:4", 0x5f97be04e6810041),
    ("fpb", 0x0829d749c0290156),
    ("fpb+wc", 0x4c7eff421b9478a9),
    ("fpb+wc+wp", 0x45704c7fc025c5f5),
    ("fpb+wc+wp+wt8", 0x7159b3f1618fec13),
    ("fpb+preset", 0xdca55d37da476660),
    ("gcp+reg", 0xce0a40c1365aee8f),
    ("dimm-chip+worstcase", 0x8a2c52df29ad720d),
    ("faults:fpb", 0x4ad49fa6709c4a95),
];

#[test]
fn paper_figure_and_fault_metrics_match_pinned_digests() {
    let cfg = SystemConfig::default();
    let wl = catalog::workload("mcf_m").expect("workload");
    let opts = SimOptions::with_instructions(INSTRUCTIONS);
    // Faults do not touch the front end, so one warm set serves both
    // configurations.
    let cores = warm_cores(&wl, &cfg, &opts);
    let registry = SchemeRegistry::standard();
    let faulty = faulty_cfg();
    let mut runs: Vec<(String, String)> = Vec::new();
    for spec in registry.paper_figure_specs() {
        let setup = registry.build(spec, &cfg).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let m = run_workload_warmed(&wl, &cfg, &setup, &opts, &cores);
        runs.push((spec.to_string(), m.to_json()));
    }
    let setup = registry.build("fpb", &faulty).expect("fpb spec");
    let m = run_workload_warmed(&wl, &faulty, &setup, &opts, &cores);
    assert!(
        m.faults.verify_failures > 0 && m.faults.brownout_windows > 0,
        "the fault mix must fire: {:?}",
        m.faults
    );
    runs.push(("faults:fpb".to_string(), m.to_json()));

    let actual: Vec<(&str, u64)> =
        runs.iter().map(|(label, json)| (label.as_str(), fingerprint64(json))).collect();
    if actual != PINNED {
        let mut report = String::from("metrics digests moved; actual table:\n");
        for ((label, digest), (_, json)) in actual.iter().zip(&runs) {
            let pinned = PINNED.iter().find(|(l, _)| l == label).map(|&(_, d)| d);
            if pinned != Some(*digest) {
                report.push_str(&format!("--- {label} (pinned {pinned:x?})\n{json}"));
            }
        }
        for (label, digest) in &actual {
            report.push_str(&format!("    ({label:?}, 0x{digest:016x}),\n"));
        }
        panic!("{report}");
    }
}
