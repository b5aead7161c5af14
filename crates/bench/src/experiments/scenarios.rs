//! Driver wrapper for the fleet scenario matrix (`reproduce --
//! scenarios`): runs every scenario in [`crate::scenarios::SCENARIOS`]
//! order, summarizes the verdicts as a result table, and hands the
//! reports back for `reproduce`'s exit status.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::scenarios;
use crate::table::ResultTable;

/// Runs the scenario matrix.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let reports = scenarios::run_all(ctx);
    let mut table = ResultTable::new(
        "scenarios",
        "Fleet scenario matrix: invariant verdicts",
        vec![
            "scenario".into(),
            "pass".into(),
            "checks".into(),
            "failed".into(),
        ],
    );
    for r in &reports {
        let failed: Vec<&str> = r
            .invariants
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.name.as_str())
            .collect();
        table.push_row(vec![
            r.name.clone(),
            r.invariants.pass.to_string(),
            r.invariants.checks.len().to_string(),
            if failed.is_empty() {
                "-".to_string()
            } else {
                failed.join(" ")
            },
        ]);
    }
    (vec![table], reports)
}
