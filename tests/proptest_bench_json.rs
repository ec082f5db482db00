//! Property: `fpb bench` emits the same deterministic metric fields no
//! matter how many workers run the sweep. The `wall` section may differ
//! run to run (it measures time), but [`BenchReport::metric_fields_json`]
//! — workload, points, per-point metrics, the `identical` flag — must be
//! byte-identical between `--jobs 1` and `--jobs N`.
//!
//! The second property pins the sweep scheduler itself: the cost
//! estimates behind the supervisor's execution order steer only *when*
//! items run, so arbitrary (even adversarially wrong) cost vectors must
//! leave the output array untouched.
//!
//! [`BenchReport::metric_fields_json`]: fpb::sim::BenchReport::metric_fields_json

use proptest::prelude::*;

use fpb::sim::supervise::supervise_map;
use fpb::sim::{run_fixed_bench_repeats, schedule_by_cost, CancelToken, SupervisePolicy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn metric_fields_identical_across_job_counts(
        jobs in 2usize..9,
        instructions in 400u64..1_000,
    ) {
        let serial =
            run_fixed_bench_repeats(1, instructions, 1).expect("pinned workload in catalog");
        let parallel =
            run_fixed_bench_repeats(jobs, instructions, 1).expect("pinned workload in catalog");

        prop_assert!(serial.identical, "serial report flagged divergence");
        prop_assert!(parallel.identical, "parallel report flagged divergence");
        prop_assert_eq!(
            serial.metric_fields_json(2),
            parallel.metric_fields_json(2),
            "metric fields diverged between jobs=1 and jobs={}",
            jobs
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn supervised_output_invariant_under_arbitrary_cost_schedules(
        costs in prop::collection::vec(0u64..1_000_000, 40),
        jobs in 1usize..5,
    ) {
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<Option<u64>> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| Some(x * 7 + i as u64))
            .collect();
        let report = supervise_map(
            items,
            &SupervisePolicy { jobs, ..SupervisePolicy::default() },
            &CancelToken::new(),
            Some(schedule_by_cost(&costs)),
            |i, &x| x * 7 + i as u64,
            |_, _| {},
        );
        prop_assert_eq!(report.results, expect, "output order must ignore the cost schedule");
    }
}
