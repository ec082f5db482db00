//! Worker-count invariance of the parallel LLC warm-up.
//!
//! `warm_cores` constructs the cores in order and then warms them on as
//! many threads as the machine offers. This suite rebuilds every warm
//! set on one thread through the public API — construct core `i`, fork
//! its warm-up stream `0xF111 + i` off the root, warm it — and checks
//! that the two sets are indistinguishable: equal per-core LLC
//! statistics, and byte-equal `Metrics` JSON once each set drives a run.

use fpb::sim::engine::warm_cores;
use fpb::sim::frontend::CoreState;
use fpb::sim::{SchemeSetup, SimOptions, System};
use fpb::trace::{catalog, Workload};
use fpb::types::{CoreId, SimRng, SystemConfig};

/// The single-threaded warm-up: the same RNG draws in the same order as
/// `warm_cores`, with every core warmed before the next is built.
fn warm_serially(wl: &Workload, cfg: &SystemConfig, opts: &SimOptions) -> Vec<CoreState> {
    let mut root = SimRng::seed_from(cfg.seed);
    let warmup = opts.warmup_accesses.unwrap_or(60_000);
    (0..cfg.cores)
        .map(|i| {
            let mut core = CoreState::with_mode(
                wl.per_core[usize::from(i)].clone(),
                CoreId::new(i),
                &cfg.cache,
                &mut root,
                opts.full_hierarchy,
            )
            .expect("cache config");
            let mut wrng = root.fork(0xF111 + u64::from(i));
            core.warm_up(warmup, &mut wrng);
            core
        })
        .collect()
}

fn check(workload: &str, full_hierarchy: bool) {
    let wl = catalog::workload(workload).expect("workload");
    let mut opts = SimOptions::with_instructions(2_000);
    opts.full_hierarchy = full_hierarchy;
    for seed in [1, 20_261_017] {
        let cfg = SystemConfig {
            seed,
            ..SystemConfig::default()
        };
        let serial = warm_serially(&wl, &cfg, &opts);
        let parallel = warm_cores(&wl, &cfg, &opts);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                s.llc_stats(),
                p.llc_stats(),
                "{workload} seed {seed} full_hierarchy {full_hierarchy}: core {i} LLC stats"
            );
        }
        let setup = SchemeSetup::fpb(&cfg);
        let run = |cores| {
            System::with_cores(&wl, &cfg, &setup, &opts, cores)
                .run()
                .to_json()
        };
        assert_eq!(
            run(serial),
            run(parallel),
            "{workload} seed {seed} full_hierarchy {full_hierarchy}: Metrics JSON"
        );
    }
}

#[test]
fn mcf_llc_only_warm_up_is_worker_count_invariant() {
    check("mcf_m", false);
}

#[test]
fn mcf_full_hierarchy_warm_up_is_worker_count_invariant() {
    check("mcf_m", true);
}

#[test]
fn lbm_llc_only_warm_up_is_worker_count_invariant() {
    check("lbm_m", false);
}

#[test]
fn lbm_full_hierarchy_warm_up_is_worker_count_invariant() {
    check("lbm_m", true);
}
