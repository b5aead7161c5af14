//! Figure 5: TopPriv vs PDX at equal word budgets.
//!
//! For cycle length υ, TopPriv spends its word budget on υ−1 separate
//! ghost queries while PDX embeds the same budget as decoy terms inside a
//! single embellished query (expansion factor υ). The figure reports the
//! ratio of the two exposures — below 1 means TopPriv hides the intention
//! better.
//!
//! Asserts, on every model: every ratio is below 1, and it does not grow
//! with υ.

use super::fig4::build_pdx_inputs;
use super::Outcome;
use crate::context::ExperimentContext;
use crate::scale::Scale;
use crate::table::{f3, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_baselines::{PdxConfig, PdxEmbellisher};
use toppriv_core::{exposure, BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement};

/// ε1 used to define the protected intention (the paper's default 5%).
pub const FIG5_EPS1: f64 = 0.05;

/// Runs the Figure 5 comparison.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let (thesaurus, idfs) = build_pdx_inputs(ctx);
    let queries = ctx.sweep_queries();
    // A tiny ε2 so the fixed-υ run never stops early for satisfaction.
    let requirement = PrivacyRequirement::new(FIG5_EPS1, 1e-6).expect("valid");

    let per_model: Vec<(usize, Vec<(usize, f64)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .models
            .iter()
            .map(|(k, model)| {
                let thesaurus = &thesaurus;
                let idfs = &idfs;
                s.spawn(move || {
                    let belief = BeliefEngine::new(model.clone());
                    let generator = GhostGenerator::new(
                        BeliefEngine::new(model.clone()),
                        requirement,
                        GhostConfig::default(),
                    );
                    let mut ratios = Vec::new();
                    for &v in &ctx.scale.cycle_lengths {
                        let pdx = PdxEmbellisher::new(
                            thesaurus,
                            idfs.clone(),
                            PdxConfig {
                                expansion_factor: v,
                                ..PdxConfig::default()
                            },
                        );
                        let mut toppriv_total = 0.0;
                        let mut pdx_total = 0.0;
                        let mut counted = 0usize;
                        for q in queries {
                            let result = generator.generate_with_target(&q.tokens, v);
                            if result.intention.is_empty() {
                                continue;
                            }
                            let qe = pdx.embellish(&q.tokens);
                            let pdx_boosts = belief.boost(&qe.tokens);
                            toppriv_total += exposure(&result.cycle_boosts, &result.intention);
                            pdx_total += exposure(&pdx_boosts, &result.intention);
                            counted += 1;
                        }
                        let ratio = if counted == 0 || pdx_total <= 0.0 {
                            f64::NAN
                        } else {
                            toppriv_total / pdx_total
                        };
                        ratios.push((v, ratio));
                    }
                    (*k, ratios)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig5 worker panicked"))
            .collect()
    });

    let mut header = vec!["cycle_length".to_string()];
    header.extend(per_model.iter().map(|(k, _)| Scale::model_label(*k)));
    let mut table = ResultTable::new(
        "fig5_toppriv_vs_pdx",
        "Exposure ratio TopPriv(v) / PDX(v-fold expansion); < 1 favours TopPriv",
        header,
    );
    for (i, &v) in ctx.scale.cycle_lengths.iter().enumerate() {
        let mut row = vec![v.to_string()];
        for (_, ratios) in &per_model {
            row.push(f3(ratios[i].1));
        }
        table.push_row(row);
    }

    let mut inv = InvariantBlock::default();
    let trend = per_model
        .iter()
        .map(|(k, ratios)| {
            let r: Vec<String> = ratios.iter().map(|&(_, r)| f3(r)).collect();
            format!("{}: {}", Scale::model_label(*k), r.join(" -> "))
        })
        .collect::<Vec<_>>()
        .join("; ");
    inv.check(
        "toppriv_below_pdx",
        trend.clone(),
        per_model
            .iter()
            .all(|(_, ratios)| ratios.iter().all(|&(_, r)| r < 1.0)),
    );
    inv.check(
        "ratio_non_increasing_in_cycle_len",
        trend,
        per_model
            .iter()
            .all(|(_, ratios)| ratios.windows(2).all(|w| w[1].1 <= w[0].1)),
    );
    (vec![table], vec![ScenarioReport::close("fig5", inv)])
}
