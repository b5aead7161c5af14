//! Figure 3: TopPriv with ε1 = ε2, varying both together.
//!
//! Panels (a)–(d) mirror Figure 2; panels (e) |U| and (f) the best rank
//! attained by any relevant topic expose how deeply the intention is
//! buried among irrelevant topics.
//!
//! Asserts, on every model: mean exposure is within ε at every ε, and υ
//! does not grow as ε loosens. Not asserted: that every query is
//! satisfied. At quick scale, ε = 1 % puts 10 of LDA020's 20 topics in
//! one query's intention; its masking topics run out and it ends at
//! 1.13 % exposure.

use super::{check_sweep, eps_sweep, sweep_table, Outcome};
use crate::context::ExperimentContext;
use crate::table::{f3, pct};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_core::PrivacyRequirement;

/// Runs the Figure 3 sweep and renders its six panels.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let sweep = eps_sweep(ctx, |eps| {
        PrivacyRequirement::new(eps, eps).expect("valid grid")
    });
    let mut inv = InvariantBlock::default();
    check_sweep(&mut inv, &sweep, |eps| eps);
    let tables = vec![
        sweep_table(
            "fig3a_exposure",
            "Exposure max B(t|C) over t in U (%), eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.exposure,
            pct,
        ),
        sweep_table(
            "fig3b_mask",
            "Mask level max B(t|C) over t notin U (%), eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.mask,
            pct,
        ),
        sweep_table(
            "fig3c_cycle_length",
            "Cycle length (queries per cycle), eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.cycle_len,
            f3,
        ),
        sweep_table(
            "fig3d_generation_time",
            "Ghost generation time (seconds), eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.gen_secs,
            |x| format!("{x:.4}"),
        ),
        sweep_table(
            "fig3e_num_relevant",
            "Number of relevant topics |U|, eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.num_relevant,
            f3,
        ),
        sweep_table(
            "fig3f_max_rank",
            "Best rank (by B(t|C)) attained by any relevant topic, eps1=eps2",
            "eps_pct",
            &sweep,
            |c| c.best_rank,
            f3,
        ),
    ];
    (tables, vec![ScenarioReport::close("fig3", inv)])
}
