//! Figure 2: TopPriv with ε1 = 5%, varying ε2.
//!
//! Panels: (a) exposure, (b) mask level, (c) cycle length υ, (d) query
//! generation time — each as a function of ε2 for the six LDA models.
//!
//! Asserts, on every model: every query meets `(ε1, ε2)` at every ε2 (so
//! mean exposure is within ε2), and υ does not grow as ε2 loosens.

use super::{check_sweep, eps_sweep, sweep_table, Outcome};
use crate::context::ExperimentContext;
use crate::table::{f3, pct};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_core::PrivacyRequirement;

/// The fixed ε1 of Figure 2 (the paper's default 5%).
pub const FIG2_EPS1: f64 = 0.05;

/// Runs the Figure 2 sweep and renders its four panels.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    // ε2 may not exceed ε1; the grid's top value equals ε1.
    let eps2_of = |eps: f64| eps.min(FIG2_EPS1);
    let sweep = eps_sweep(ctx, |eps| {
        PrivacyRequirement::new(FIG2_EPS1, eps2_of(eps)).expect("valid grid")
    });
    let mut inv = InvariantBlock::default();
    let unsatisfied = sweep
        .iter()
        .flat_map(|(_, cells)| cells)
        .filter(|(_, c)| c.satisfied < 1.0)
        .count();
    inv.check(
        "every_query_satisfied",
        format!("{unsatisfied} (K, eps2) point(s) with an unsatisfied query"),
        unsatisfied == 0,
    );
    check_sweep(&mut inv, &sweep, eps2_of);
    let tables = vec![
        sweep_table(
            "fig2a_exposure",
            "Exposure max B(t|C) over t in U (%), eps1=5%",
            "eps2_pct",
            &sweep,
            |c| c.exposure,
            pct,
        ),
        sweep_table(
            "fig2b_mask",
            "Mask level max B(t|C) over t notin U (%), eps1=5%",
            "eps2_pct",
            &sweep,
            |c| c.mask,
            pct,
        ),
        sweep_table(
            "fig2c_cycle_length",
            "Cycle length (queries per cycle), eps1=5%",
            "eps2_pct",
            &sweep,
            |c| c.cycle_len,
            f3,
        ),
        sweep_table(
            "fig2d_generation_time",
            "Ghost generation time (seconds), eps1=5%",
            "eps2_pct",
            &sweep,
            |c| c.gen_secs,
            |x| format!("{x:.4}"),
        ),
        sweep_table(
            "fig2x_satisfied",
            "Fraction of queries meeting (eps1,eps2)-privacy (extra panel)",
            "eps2_pct",
            &sweep,
            |c| c.satisfied,
            f3,
        ),
    ];
    (tables, vec![ScenarioReport::close("fig2", inv)])
}
