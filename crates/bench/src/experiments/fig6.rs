//! Figure 6: growth of the client-side LDA model vs the inverted index as
//! the corpus scales.
//!
//! The naive private alternative ships the whole inverted index to the
//! client (linear in documents); TopPriv ships the LDA model, dominated by
//! the `Pr(w|t)` matrix whose size tracks the vocabulary — which, per
//! Heaps' law, grows sublinearly. The sweep regenerates the corpus at
//! several sizes with Heaps-scaled vocabularies and measures both.
//!
//! Asserts the figure's point: the model-to-raw-index size ratio falls at
//! every step as the corpus grows.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::scale::Scale;
use crate::table::ResultTable;
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_baselines::SpaceComparison;
use tsearch_corpus::{CorpusConfig, SyntheticCorpus};
use tsearch_index::InvertedIndex;
use tsearch_lda::{LdaConfig, LdaTrainer};

/// Heaps-law exponent used to scale the vocabulary with corpus size.
pub const HEAPS_BETA: f64 = 0.45;

/// Derives the corpus config for one sweep point: `docs` documents with a
/// vocabulary scaled as `(docs / base_docs)^HEAPS_BETA`.
pub fn scaled_config(base: &CorpusConfig, docs: usize) -> CorpusConfig {
    let factor = (docs as f64 / base.num_docs as f64).powf(HEAPS_BETA);
    CorpusConfig {
        num_docs: docs,
        terms_per_topic: ((base.terms_per_topic as f64 * factor).round() as usize).max(10),
        shared_pool_terms: ((base.shared_pool_terms as f64 * factor).round() as usize).max(5),
        background_terms: ((base.background_terms as f64 * factor).round() as usize).max(10),
        ..base.clone()
    }
}

/// Runs the Figure 6 sweep (points in parallel).
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let k = ctx.scale.default_k;
    // Training here is per-point; half the iterations are plenty for a
    // size measurement (size is independent of fit quality).
    let iterations = (ctx.scale.lda_iterations / 2).max(5);
    let points: Vec<SpaceComparison> = std::thread::scope(|s| {
        let handles: Vec<_> = ctx
            .scale
            .fig6_doc_counts
            .iter()
            .map(|&docs| {
                let base = &ctx.scale.corpus;
                s.spawn(move || {
                    let config = scaled_config(base, docs);
                    let corpus = SyntheticCorpus::generate(config);
                    let token_docs = corpus.token_docs();
                    let index = InvertedIndex::build(&token_docs, corpus.vocab.len());
                    let model = LdaTrainer::train(
                        &token_docs,
                        corpus.vocab.len(),
                        LdaConfig {
                            iterations,
                            ..LdaConfig::with_topics(k)
                        },
                    );
                    SpaceComparison::measure(docs, &index, &model)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fig6 worker panicked"))
            .collect()
    });

    let mut table = ResultTable::new(
        "fig6_space_growth",
        format!(
            "Inverted index vs client-side {} model size as the corpus grows",
            Scale::model_label(k)
        ),
        vec![
            "num_docs".into(),
            "vocab_size".into(),
            "index_raw_KB".into(),
            "index_compressed_KB".into(),
            "lda_client_KB".into(),
            "lda_over_raw_index".into(),
        ],
    );
    let ratios: Vec<f64> = points
        .iter()
        .map(|p| p.lda_client_bytes as f64 / p.index_raw_bytes.max(1) as f64)
        .collect();
    for (p, ratio) in points.iter().zip(&ratios) {
        table.push_row(vec![
            p.num_docs.to_string(),
            p.vocab_size.to_string(),
            format!("{:.1}", p.index_raw_bytes as f64 / 1024.0),
            format!("{:.1}", p.index_bytes as f64 / 1024.0),
            format!("{:.1}", p.lda_client_bytes as f64 / 1024.0),
            format!("{ratio:.3}"),
        ]);
    }

    let mut inv = InvariantBlock::default();
    inv.check(
        "model_to_index_ratio_falls_with_docs",
        ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" -> "),
        ratios.windows(2).all(|w| w[1] < w[0]),
    );
    (vec![table], vec![ScenarioReport::close("fig6", inv)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heaps_scaling_is_sublinear() {
        let base = CorpusConfig::default();
        let doubled = scaled_config(&base, base.num_docs * 2);
        assert_eq!(doubled.num_docs, base.num_docs * 2);
        let ratio = doubled.terms_per_topic as f64 / base.terms_per_topic as f64;
        assert!(
            ratio > 1.0 && ratio < 2.0,
            "vocab grows sublinearly: {ratio}"
        );
    }

    #[test]
    fn downscaling_respects_minimums() {
        let base = CorpusConfig::tiny();
        let tiny = scaled_config(&base, 1);
        assert!(tiny.terms_per_topic >= 10);
        assert!(tiny.background_terms >= 10);
    }
}
