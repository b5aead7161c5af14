//! Experiment `staleness` (extension beyond the paper): topic drift vs
//! the once-trained client model.
//!
//! Section IV-B trains the LDA model once and retains it. Enterprise
//! corpora drift: new projects bring new topics and new vocabulary. The
//! adversary (the search engine) can retrain whenever it likes; the
//! client often cannot. This experiment evolves the corpus (new topic
//! blocks + documents), then protects queries three ways and audits each
//! against a **fresh** model:
//!
//! - `stale` — the deployed client: out-of-vocabulary terms are dropped,
//!   intention is inferred with the old model, ghosts follow the paper's
//!   stopping rule. On new-topic queries the stale model sees nothing to
//!   protect, emits no ghosts, and the query is fully exposed.
//! - `stale_forced` — defensive mitigation: the client always pads the
//!   cycle to υ = 4 even when its model reports no intention.
//! - `retrained` — the client retrained on the evolved corpus (upper
//!   bound, at full retraining cost).
//!
//! Asserts that `retrained` is satisfied more often than `stale` in both
//! query classes, and that `stale` leaves new-topic queries exposed above
//! ε2.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::table::{f3, pct, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_core::{exposure, BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement};
use tsearch_corpus::{generate_workload, EvolutionConfig, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};

/// Forced cycle length for the mitigation policy.
pub const FORCED_UPSILON: usize = 4;

/// Runs the staleness experiment at the default K.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let base_topics = ctx.corpus.num_topics();
    let old_vocab = ctx.corpus.vocab.len() as u32;
    let evolved = ctx.corpus.evolve(EvolutionConfig {
        new_topics: (base_topics / 5).max(2),
        new_docs: (ctx.corpus.num_docs() / 5).max(50),
        new_topic_share: 0.8,
        ..Default::default()
    });

    // Fresh model over the evolved corpus — both the adversary's view and
    // the `retrained` client.
    let evolved_docs = evolved.token_docs();
    let fresh = LdaTrainer::train(
        &evolved_docs,
        evolved.vocab.len(),
        LdaConfig {
            iterations: ctx.scale.lda_iterations,
            ..LdaConfig::with_topics(ctx.scale.default_k)
        },
    );
    let fresh = std::sync::Arc::new(fresh);
    let audit = BeliefEngine::new(fresh.clone());
    let requirement = PrivacyRequirement::paper_default();

    let stale_gen = GhostGenerator::new(
        BeliefEngine::new(ctx.default_model().clone()),
        requirement,
        GhostConfig::default(),
    );
    let fresh_gen = GhostGenerator::new(
        BeliefEngine::new(fresh.clone()),
        requirement,
        GhostConfig::default(),
    );

    // Workload over the evolved corpus, split by query class. Generating
    // a larger pool guarantees enough new-topic queries.
    let pool = generate_workload(
        &evolved,
        &WorkloadConfig {
            num_queries: ctx.scale.queries_per_setting * 8,
            ..ctx.scale.workload.clone()
        },
    );
    let per_class = ctx.scale.queries_per_setting.max(8);
    let old_queries: Vec<_> = pool
        .iter()
        .filter(|q| q.target_topics.iter().all(|&t| t < base_topics))
        .take(per_class)
        .collect();
    let new_queries: Vec<_> = pool
        .iter()
        .filter(|q| q.target_topics.iter().all(|&t| t >= base_topics))
        .take(per_class)
        .collect();

    let mut table = ResultTable::new(
        "ext5_model_staleness",
        "Topic drift vs the once-trained client model: privacy audited \
         under a fresh adversary model (default K, eps=(5%,1%))",
        vec![
            "policy".into(),
            "query_class".into(),
            "queries".into(),
            "client_seen_intention".into(),
            "oov_token_pct".into(),
            "cycle_len".into(),
            "exposure_pct".into(),
            "satisfied".into(),
        ],
    );

    // (policy, class) -> (mean exposure, satisfied fraction), for the checks.
    let mut verdicts: Vec<(&str, &str, f64, f64)> = Vec::new();
    for policy in ["stale", "stale_forced", "retrained"] {
        for (class, queries) in [("old_topics", &old_queries), ("new_topics", &new_queries)] {
            let mut seen_intention = 0.0f64;
            let mut oov = 0.0f64;
            let mut cycle_len = 0.0f64;
            let mut expo = 0.0f64;
            let mut satisfied = 0usize;
            let mut judged = 0usize;
            for q in queries.iter() {
                // The stale client must drop terms its model has never
                // seen (exactly what GibbsLDA++ does in inference mode).
                let projected: Vec<u32> = q
                    .tokens
                    .iter()
                    .copied()
                    .filter(|&w| w < old_vocab)
                    .collect();
                oov += 1.0 - projected.len() as f64 / q.tokens.len().max(1) as f64;
                let r = match policy {
                    "stale" => stale_gen.generate(&projected),
                    "stale_forced" => stale_gen.generate_with_target(&projected, FORCED_UPSILON),
                    _ => fresh_gen.generate(&q.tokens),
                };
                seen_intention += r.intention.len() as f64;
                cycle_len += r.cycle_len() as f64;
                // The cycle as the server sees it: the genuine query goes
                // out with its full (unprojected) terms; ghost terms are
                // old-vocabulary ids, valid in the evolved vocabulary.
                let cycle_full: Vec<Vec<u32>> = r
                    .cycle
                    .iter()
                    .enumerate()
                    .map(|(i, cq)| {
                        if i == r.genuine_index {
                            q.tokens.clone()
                        } else {
                            cq.tokens.clone()
                        }
                    })
                    .collect();
                let solo = audit.boost(&q.tokens);
                let intention = requirement.user_intention(&solo);
                if intention.is_empty() {
                    continue;
                }
                let posteriors: Vec<Vec<f64>> =
                    cycle_full.iter().map(|t| audit.posterior(t)).collect();
                let boosts = audit.cycle_boost(&posteriors);
                expo += exposure(&boosts, &intention);
                if requirement.is_satisfied(&boosts, &intention) {
                    satisfied += 1;
                }
                judged += 1;
            }
            let n = queries.len().max(1) as f64;
            let j = judged.max(1) as f64;
            verdicts.push((policy, class, expo / j, satisfied as f64 / j));
            table.push_row(vec![
                policy.into(),
                class.into(),
                queries.len().to_string(),
                f3(seen_intention / n),
                pct(oov / n),
                f3(cycle_len / n),
                pct(expo / j),
                f3(satisfied as f64 / j),
            ]);
        }
    }

    let at = |policy: &str, class: &str| {
        let &(_, _, exposure, satisfied) = verdicts
            .iter()
            .find(|v| v.0 == policy && v.1 == class)
            .expect("every policy runs every class");
        (exposure, satisfied)
    };
    let mut inv = InvariantBlock::default();
    for class in ["old_topics", "new_topics"] {
        let (stale, retrained) = (at("stale", class).1, at("retrained", class).1);
        inv.check(
            format!("retrained_beats_stale_on_{class}"),
            format!("satisfied: retrained {retrained:.3} vs stale {stale:.3}"),
            retrained > stale,
        );
    }
    let stale_new = at("stale", "new_topics").0;
    inv.check(
        "stale_exposes_new_topics",
        format!(
            "stale new-topic exposure {}% vs eps2 {}%",
            pct(stale_new),
            pct(requirement.eps2)
        ),
        stale_new > requirement.eps2,
    );
    (vec![table], vec![ScenarioReport::close("staleness", inv)])
}
