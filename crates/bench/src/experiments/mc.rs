//! Experiment `mc1`: the Murugesan & Clifton canonical-query baseline.
//!
//! Quantifies the paper's criticism of reference \[10\] (Section II):
//! substituting the user query with the closest canonical query "affects
//! the precision-recall characteristics intended by the search engine
//! designer". We measure, per workload query:
//!
//! - result distortion: overlap@k between the true query's results and
//!   what each scheme hands the user — the canonical query's results for
//!   MC, the [`TrustedClient`]'s filtered cycle results for TopPriv;
//! - topical exposure of the MC group (canonical + covers) under the same
//!   LDA belief model, for comparison with TopPriv's cycles at equal
//!   deniability-set size.
//!
//! Asserts the distortion claim both ways: MC's overlap is below 1, and
//! TopPriv's measured overlap is exactly 1 on every query.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::table::{f3, pct, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_baselines::{LsiConfig, LsiModel, McConfig, McScheme};
use toppriv_core::{
    exposure, BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement, TrustedClient,
};
use tsearch_search::Query;

/// Result-list overlap@k between two hit lists.
fn overlap_at_k(a: &[tsearch_search::SearchHit], b: &[tsearch_search::SearchHit], k: usize) -> f64 {
    let sa: std::collections::HashSet<u32> = a.iter().take(k).map(|h| h.doc_id).collect();
    let sb: std::collections::HashSet<u32> = b.iter().take(k).map(|h| h.doc_id).collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let denom = sa.len().max(sb.len()).max(1);
    sa.intersection(&sb).count() as f64 / denom as f64
}

/// Builds the MC scheme for the context corpus.
pub fn build_scheme(ctx: &ExperimentContext) -> McScheme {
    let docs = ctx.corpus.token_docs();
    let lsi = LsiModel::train(
        &docs,
        ctx.corpus.vocab.len(),
        LsiConfig::default(), // 30 factors, as in reference [10]
    );
    let freq: Vec<u64> = (0..ctx.corpus.vocab.len() as u32)
        .map(|t| ctx.corpus.vocab.collection_freq(t))
        .collect();
    McScheme::build(lsi, &freq, McConfig::default())
}

/// Runs the comparison.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    const K: usize = 10;
    let scheme = build_scheme(ctx);
    let model = ctx.default_model();
    let belief = BeliefEngine::new(model.clone());
    let requirement = PrivacyRequirement::paper_default();
    let client = TrustedClient::new(
        ctx.engine.clone(),
        GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig::default(),
        ),
    );
    let queries = ctx.sweep_queries();

    let mut mc_overlap = 0.0;
    let mut mc_exposure = 0.0;
    let mut mc_group = 0.0;
    let mut tp_overlap = 0.0;
    let mut tp_exact = 0usize;
    let mut tp_exposure = 0.0;
    let mut tp_cycle = 0.0;
    let mut scored = 0usize;
    for q in queries {
        let solo_boosts = belief.boost(&q.tokens);
        let intention = requirement.user_intention(&solo_boosts);
        if intention.is_empty() {
            continue;
        }
        let Some(sub) = scheme.substitute(&q.tokens) else {
            continue;
        };
        scored += 1;

        // --- Result distortion -------------------------------------------
        let true_hits = ctx.engine.evaluate(&Query::from_tokens(&q.tokens), K);
        let canon_hits = ctx.engine.evaluate(
            &Query::from_tokens(scheme.canonical_tokens(sub.canonical)),
            K,
        );
        mc_overlap += overlap_at_k(&true_hits, &canon_hits, K);
        let private = client.search_tokens(&q.tokens, K);
        let overlap = overlap_at_k(&true_hits, &private.hits, K);
        tp_overlap += overlap;
        tp_exact += usize::from(overlap == 1.0);

        // --- Topical exposure of the deniability set ----------------------
        let mut group_tokens: Vec<&[u32]> = vec![scheme.canonical_tokens(sub.canonical)];
        for &cover in &sub.covers {
            group_tokens.push(scheme.canonical_tokens(cover));
        }
        mc_group += group_tokens.len() as f64;
        let posteriors: Vec<Vec<f64>> = group_tokens.iter().map(|t| belief.posterior(t)).collect();
        let group_boosts = belief.cycle_boost(&posteriors);
        mc_exposure += exposure(&group_boosts, &intention);

        let cycle = &private.report;
        tp_exposure += exposure(&cycle.cycle_boosts, &cycle.intention);
        tp_cycle += cycle.cycle_len() as f64;
    }
    let n = scored.max(1) as f64;

    let mut table = ResultTable::new(
        "mc1_canonical_substitution",
        "Murugesan-Clifton substitution vs TopPriv (default model, eps=(5%,1%))",
        vec![
            "scheme".into(),
            "result_overlap@10".into(),
            "exposure_pct".into(),
            "deniability_set".into(),
            "queries".into(),
        ],
    );
    table.push_row(vec![
        "MC canonical".into(),
        f3(mc_overlap / n),
        pct(mc_exposure / n),
        f3(mc_group / n),
        scored.to_string(),
    ]);
    table.push_row(vec![
        "TopPriv".into(),
        f3(tp_overlap / n),
        pct(tp_exposure / n),
        f3(tp_cycle / n),
        scored.to_string(),
    ]);

    let mut inv = InvariantBlock::default();
    inv.check(
        "mc_distorts_results",
        format!("MC overlap@{K} {:.3} over {scored} queries", mc_overlap / n),
        scored > 0 && mc_overlap / n < 1.0,
    );
    inv.check(
        "toppriv_results_exact",
        format!("TopPriv overlap@{K} = 1 on {tp_exact} of {scored} queries"),
        scored > 0 && tp_exact == scored,
    );
    (vec![table], vec![ScenarioReport::close("mc", inv)])
}
