//! Experiment `classifier` (extension beyond §IV-D): a supervised
//! naive-Bayes adversary trained on the ground-truth document taxonomy.
//!
//! The enterprise hosting the corpus can always train a topic classifier
//! on its own documents — no LDA involved — and run it over the query
//! stream. The experiment measures, for TopPriv and for TrackMeNot-style
//! random ghosts:
//!
//! - the classifier's accuracy on the raw genuine queries (oracle
//!   reference — it should be high, otherwise the attack is a straw man);
//! - how often the pooled cycle bag still classifies to the user's true
//!   topic (intention recovery);
//! - how often the most confidently classified query of a cycle is the
//!   genuine one (genuine identification).
//!
//! Asserts that TopPriv's cycles leave the classifier clearly (by more
//! than 3 standard errors) worse off than TrackMeNot's, on both recovery
//! and identification. Identification stays above chance for both.

use super::{check_clearly_below, topic_classifier, Outcome};
use crate::context::ExperimentContext;
use crate::table::{f3, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_adversary::run_classifier_attack;
use toppriv_baselines::{TrackMeNot, TrackMeNotConfig};
use toppriv_core::{
    BeliefEngine, CycleQuery, CycleResult, GhostConfig, GhostGenerator, PrivacyMetrics,
    PrivacyRequirement,
};

/// Wraps a bare query list into the [`CycleResult`] shape the attack
/// evaluator consumes (only `cycle` and `genuine_index` matter to it).
fn as_cycle(queries: Vec<Vec<u32>>, genuine_index: usize) -> CycleResult {
    let cycle: Vec<CycleQuery> = queries
        .into_iter()
        .enumerate()
        .map(|(i, tokens)| CycleQuery {
            tokens,
            is_genuine: i == genuine_index,
            masking_topic: None,
        })
        .collect();
    CycleResult {
        cycle,
        genuine_index,
        intention: vec![],
        solo_boosts: vec![],
        cycle_boosts: vec![],
        masking_topics: vec![],
        ineffective_topics: vec![],
        satisfied: false,
        metrics: PrivacyMetrics::default(),
    }
}

/// Runs the supervised-classifier attack experiment.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let nb = topic_classifier(ctx);

    let queries = &ctx.queries[..ctx.scale.adversary_queries.min(ctx.queries.len())];
    let truths: Vec<usize> = queries.iter().map(|q| q.target_topics[0]).collect();

    // TopPriv cycles from the default model.
    let generator = GhostGenerator::new(
        BeliefEngine::new(ctx.default_model().clone()),
        PrivacyRequirement::paper_default(),
        GhostConfig::default(),
    );
    let toppriv_cycles: Vec<CycleResult> = queries
        .iter()
        .map(|q| generator.generate(&q.tokens))
        .collect();

    // TrackMeNot cycles matched in length to the TopPriv ones.
    let tmn = TrackMeNot::new(ctx.corpus.vocab.len(), TrackMeNotConfig::default());
    let tmn_cycles: Vec<CycleResult> = queries
        .iter()
        .map(|q| {
            let (cycle, genuine_index) = tmn.cycle(&q.tokens);
            as_cycle(cycle, genuine_index)
        })
        .collect();

    let mut table = ResultTable::new(
        "adv2_classifier_attack",
        "Supervised naive-Bayes adversary trained on ground-truth labels \
         (default model cycles, eps=(5%,1%))",
        vec![
            "scheme".into(),
            "unprotected_recovery".into(),
            "cycle_recovery".into(),
            "topic_chance".into(),
            "genuine_ident".into(),
            "genuine_chance".into(),
            "cycles".into(),
        ],
    );
    let reports = [&toppriv_cycles, &tmn_cycles].map(|c| run_classifier_attack(&nb, c, &truths));
    for (scheme, r) in ["toppriv", "trackmenot"].into_iter().zip(&reports) {
        table.push_row(vec![
            scheme.into(),
            f3(r.unprotected_recovery),
            f3(r.cycle_recovery),
            f3(r.topic_chance),
            f3(r.genuine_identification),
            f3(r.genuine_chance),
            r.cycles.to_string(),
        ]);
    }
    let [tp, tmn] = reports;
    let mut inv = InvariantBlock::default();
    check_clearly_below(
        &mut inv,
        "cycle_recovery_below_trackmenot",
        (tp.cycle_recovery, tp.cycles),
        (tmn.cycle_recovery, tmn.cycles),
    );
    check_clearly_below(
        &mut inv,
        "genuine_identification_below_trackmenot",
        (tp.genuine_identification, tp.cycles),
        (tmn.genuine_identification, tmn.cycles),
    );
    (vec![table], vec![ScenarioReport::close("classifier", inv)])
}
