//! Experiment `adv1`: empirical resilience against the Section IV-D
//! attacks on cycles produced at the default `(ε1, ε2)` setting.
//!
//! Asserts that term elimination and probing identify the genuine query
//! no better than chance + 3 standard errors. The coherence and
//! exposure-rank attacks are tabulated but not asserted: on these
//! corpora they beat chance.

use super::{check_near_chance, Outcome};
use crate::context::ExperimentContext;
use crate::table::{f3, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_adversary::{
    run_coherence_attack, run_exposure_attack, run_probing_attack, run_term_elimination_attack,
};
use toppriv_core::{BeliefEngine, CycleResult, GhostConfig, GhostGenerator, PrivacyRequirement};

/// Replays per probing-attack candidate (kept small: the attack is O(υ ·
/// replays · ghost generation)).
pub const PROBING_REPLAYS: usize = 2;

/// Runs the four attacks and reports success vs chance.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let model = ctx.default_model();
    let requirement = PrivacyRequirement::paper_default();
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        requirement,
        GhostConfig::default(),
    );
    let n = ctx.scale.adversary_queries.min(ctx.queries.len());
    let cycles: Vec<CycleResult> = ctx.queries[..n]
        .iter()
        .map(|q| generator.generate(&q.tokens))
        .collect();

    // Attacks with more than one trivially-satisfied cycle are meaningless;
    // keep only cycles that actually contain ghosts.
    let contested: Vec<CycleResult> = cycles.into_iter().filter(|c| c.cycle_len() > 1).collect();

    let elimination = run_term_elimination_attack(model, &contested, 2, 20, requirement.eps1);
    let probing = run_probing_attack(model, &contested, requirement, PROBING_REPLAYS);
    let mut inv = InvariantBlock::default();
    for (name, r) in [
        ("term_elimination_near_chance", &elimination),
        ("probing_near_chance", &probing),
    ] {
        check_near_chance(&mut inv, name, r.success_rate, r.chance_rate, r.trials);
    }
    let reports = [
        run_coherence_attack(model, &contested),
        run_exposure_attack(model, &contested, 3),
        run_exposure_attack(model, &contested, 10.min(model.num_topics())),
        elimination,
        probing,
    ];

    let mut table = ResultTable::new(
        "adv1_attacks",
        "Section IV-D attack success on protected cycles (advantage <= ~0 means resilient)",
        vec![
            "attack".into(),
            "success".into(),
            "chance".into(),
            "advantage".into(),
            "trials".into(),
        ],
    );
    for r in &reports {
        table.push_row(vec![
            r.attack.clone(),
            f3(r.success_rate),
            f3(r.chance_rate),
            f3(r.advantage()),
            r.trials.to_string(),
        ]);
    }
    (vec![table], vec![ScenarioReport::close("adversary", inv)])
}
