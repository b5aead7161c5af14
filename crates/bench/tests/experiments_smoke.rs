//! Smoke test for the reproduction harness: every table-only experiment
//! in `experiments::ALL` runs at quick scale and produces well-formed
//! tables (non-empty, rectangular, CSV-serializable).

use toppriv_bench::experiments::{self, Run};
use toppriv_bench::{ExperimentContext, ResultTable, Scale};

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
        // The gating rows run in CI through `reproduce`, whose exit
        // status is their verdict; their timing checks
        // (`degraded_drain_bounded`, `auditor_overhead_within_budget`)
        // do not belong under a parallel debug `cargo test`.
        let Run::Tables(f) = run else { continue };
        check(&f(&ctx), exp);
    }
}
