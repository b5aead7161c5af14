//! Smoke test for the reproduction harness: every experiment in
//! `experiments::ALL` but the fleet rows runs at quick scale, produces
//! well-formed tables (non-empty, rectangular, CSV-serializable), and
//! passes every claim it checks.

use toppriv_bench::experiments;
use toppriv_bench::{verdict, ExperimentContext, ResultTable, Scale};

fn check(tables: &[ResultTable], exp: &str) {
    assert!(!tables.is_empty(), "{exp}: no tables");
    for t in tables {
        assert!(!t.header.is_empty(), "{exp}/{}: empty header", t.name);
        assert!(!t.rows.is_empty(), "{exp}/{}: no rows", t.name);
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                t.header.len(),
                "{exp}/{}: row {i} is ragged",
                t.name
            );
        }
        let csv = t.to_csv();
        assert_eq!(
            csv.lines().count(),
            t.rows.len() + 1,
            "{exp}/{}: csv line count",
            t.name
        );
    }
}

#[test]
fn every_experiment_runs_at_quick_scale() {
    let ctx = ExperimentContext::build(Scale::quick(), None);
    for (exp, run) in experiments::ALL {
        // The fleet rows run in CI through `reproduce`, whose exit status
        // is their verdict; their timing checks (`degraded_drain_bounded`,
        // `auditor_overhead_within_budget`) do not belong under a
        // parallel debug `cargo test`.
        if ["scenarios", "audit", "planner"].contains(exp) {
            continue;
        }
        let (tables, reports) = run(&ctx);
        check(&tables, exp);
        assert!(!reports.is_empty(), "{exp}: asserts nothing");
        let (status, failed) = verdict::exit_status(&reports);
        assert_eq!(status, 0, "{exp}:\n{failed}");
    }
}
