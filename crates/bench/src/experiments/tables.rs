//! Tables II–IV: qualitative topic inspection.
//!
//! - Table II: top-20 words of several coherent topics in the default
//!   model.
//! - Table III: the "same" topic tracked across all trained models via
//!   cosine matching of topic-word distributions.
//! - Table IV: a deliberately tiny model (K=5 counterpart of the paper's
//!   LDA005) whose topics are indistinct, quantified by mean pairwise
//!   topic similarity.
//!
//! Asserts Table IV's point: LDA005's topics are more alike (higher mean
//! pairwise cosine) than those of every model in the bank.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::scale::Scale;
use crate::table::ResultTable;
use crate::verdict::{InvariantBlock, ScenarioReport};
use tsearch_lda::{
    best_matching_topic, mean_pairwise_topic_similarity, topic_report, LdaConfig, LdaTrainer,
};

/// Words shown per topic (the paper prints 20).
pub const TOP_WORDS: usize = 20;

/// Number of sample topics in the Table II counterpart.
pub const SAMPLE_TOPICS: usize = 5;

/// Runs all three table reproductions.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let mut out = Vec::new();
    let model = ctx.default_model();
    let vocab = &ctx.corpus.vocab;
    let label = Scale::model_label(ctx.scale.default_k);

    // --- Table II: sample topics of the default model -------------------
    // Pick the topics with the highest corpus prior (the most substantial
    // ones), which tend to be the coherent, specific topics.
    let mut by_prior: Vec<usize> = (0..model.num_topics()).collect();
    by_prior.sort_by(|&a, &b| model.prior()[b].partial_cmp(&model.prior()[a]).unwrap());
    let chosen: Vec<usize> = by_prior.into_iter().take(SAMPLE_TOPICS).collect();
    let mut tab2 = ResultTable::new(
        "tab2_sample_topics",
        format!("Sample topics in the {label} model (top-{TOP_WORDS} words)"),
        chosen.iter().map(|t| format!("topic_{t}")).collect(),
    );
    let reports: Vec<_> = chosen
        .iter()
        .map(|&t| topic_report(model, vocab, t, TOP_WORDS))
        .collect();
    for i in 0..TOP_WORDS {
        tab2.push_row(
            reports
                .iter()
                .map(|r| {
                    r.top_words
                        .get(i)
                        .map(|(w, _)| w.clone())
                        .unwrap_or_default()
                })
                .collect(),
        );
    }
    out.push(tab2);

    // --- Table III: one topic across all models -------------------------
    // Anchor: the default model's highest-prior topic; match it into every
    // other model by cosine similarity.
    let anchor = chosen[0];
    let mut header = Vec::new();
    let mut columns: Vec<Vec<String>> = Vec::new();
    for (k, other) in &ctx.models {
        let (matched, sim) = if std::ptr::eq(other, model) {
            (anchor, 1.0)
        } else {
            best_matching_topic(model, anchor, other)
        };
        header.push(format!(
            "{}(t{} sim {:.2})",
            Scale::model_label(*k),
            matched,
            sim
        ));
        columns.push(
            topic_report(other, vocab, matched, TOP_WORDS)
                .top_words
                .into_iter()
                .map(|(w, _)| w)
                .collect(),
        );
    }
    let mut tab3 = ResultTable::new(
        "tab3_common_topic",
        "A common topic tracked across the LDA models (cosine matching)",
        header,
    );
    for i in 0..TOP_WORDS {
        tab3.push_row(
            columns
                .iter()
                .map(|c| c.get(i).cloned().unwrap_or_default())
                .collect(),
        );
    }
    out.push(tab3);

    // --- Table IV: the indistinct tiny model -----------------------------
    let docs = ctx.corpus.token_docs();
    let tiny = LdaTrainer::train(
        &docs,
        ctx.corpus.vocab.len(),
        LdaConfig {
            iterations: ctx.scale.lda_iterations,
            ..LdaConfig::with_topics(5)
        },
    );
    let mut tab4 = ResultTable::new(
        "tab4_lda005_topics",
        "Topics in the LDA005 model (too few topics -> indistinct)",
        (0..5).map(|t| format!("topic_{t}")).collect(),
    );
    let tiny_reports: Vec<_> = (0..5)
        .map(|t| topic_report(&tiny, vocab, t, TOP_WORDS))
        .collect();
    for i in 0..TOP_WORDS {
        tab4.push_row(
            tiny_reports
                .iter()
                .map(|r| {
                    r.top_words
                        .get(i)
                        .map(|(w, _)| w.clone())
                        .unwrap_or_default()
                })
                .collect(),
        );
    }
    out.push(tab4);

    // Quantified indistinctness comparison.
    let mut sim_table = ResultTable::new(
        "tab4x_topic_distinctness",
        "Mean pairwise topic similarity (higher = more indistinct)",
        vec!["model".into(), "mean_pairwise_cosine".into()],
    );
    let tiny_sim = mean_pairwise_topic_similarity(&tiny);
    sim_table.push_row(vec!["LDA005".into(), format!("{tiny_sim:.4}")]);
    let bank_max = ctx
        .models
        .iter()
        .map(|(k, m)| {
            let sim = mean_pairwise_topic_similarity(m);
            sim_table.push_row(vec![Scale::model_label(*k), format!("{sim:.4}")]);
            sim
        })
        .fold(f64::NEG_INFINITY, f64::max);
    out.push(sim_table);

    let mut inv = InvariantBlock::default();
    inv.check(
        "lda005_least_distinct",
        format!("LDA005 {tiny_sim:.4} vs bank max {bank_max:.4}"),
        tiny_sim > bank_max,
    );
    (out, vec![ScenarioReport::close("tables", inv)])
}
