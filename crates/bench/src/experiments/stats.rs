//! Collection statistics (experiment `stat1`): the corpus and index
//! numbers the paper quotes in Sections II and V-A — mean/max inverted
//! list lengths and the PIR padding blowup.
//!
//! Asserts the two facts the paper's argument rests on: the vocabulary
//! grows sublinearly in the documents (Heaps' β ∈ (0, 1), which is why the
//! client model grows slower than the index, Figure 6), and padding every
//! inverted list to the longest one for PIR inflates the index.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::table::ResultTable;
use crate::verdict::{InvariantBlock, ScenarioReport};
use tsearch_corpus::{fit_heaps, vocabulary_growth, CorpusStats};
use tsearch_index::IndexStats;

/// Computes and renders the statistics tables.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let corpus_stats = CorpusStats::compute(&ctx.corpus);
    let index_stats = IndexStats::compute(ctx.engine.index());

    let mut corpus_table = ResultTable::new(
        "stat1_corpus",
        "Corpus statistics (WSJ substitute)",
        vec!["metric".into(), "value".into()],
    );
    let heaps = fit_heaps(&vocabulary_growth(&ctx.corpus));
    for (metric, value) in [
        (
            "heaps_beta (vocab ~ k*docs^beta)",
            heaps
                .map(|(_, b)| format!("{b:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        ),
        ("documents", corpus_stats.num_docs.to_string()),
        ("vocabulary", corpus_stats.vocab_size.to_string()),
        ("observed_terms", corpus_stats.observed_terms.to_string()),
        ("total_tokens", corpus_stats.total_tokens.to_string()),
        ("avg_doc_len", format!("{:.1}", corpus_stats.avg_doc_len)),
        ("min_doc_len", corpus_stats.min_doc_len.to_string()),
        ("max_doc_len", corpus_stats.max_doc_len.to_string()),
    ] {
        corpus_table.push_row(vec![metric.to_string(), value]);
    }

    let mut index_table = ResultTable::new(
        "stat1_index",
        "Inverted index statistics and the PIR padding argument",
        vec!["metric".into(), "value".into()],
    );
    for (metric, value) in [
        ("non_empty_lists", index_stats.non_empty_lists.to_string()),
        (
            "avg_list_len (paper WSJ: 186.7)",
            format!("{:.1}", index_stats.avg_list_len),
        ),
        (
            "max_list_len (paper WSJ: 127848)",
            index_stats.max_list_len.to_string(),
        ),
        (
            "actual_index_KB",
            format!("{:.1}", index_stats.actual_bytes as f64 / 1024.0),
        ),
        (
            "pir_padded_KB (paper: 259MB -> 178GB)",
            format!("{:.1}", index_stats.pir_padded_bytes as f64 / 1024.0),
        ),
        (
            "pir_blowup_factor",
            format!("{:.1}", index_stats.pir_blowup()),
        ),
    ] {
        index_table.push_row(vec![metric.to_string(), value]);
    }

    let mut inv = InvariantBlock::default();
    let beta = heaps.map(|(_, b)| b);
    inv.check(
        "heaps_beta_sublinear",
        format!("beta {beta:?}"),
        beta.is_some_and(|b| b > 0.0 && b < 1.0),
    );
    inv.check(
        "pir_padding_inflates_index",
        format!("blowup {:.1}x", index_stats.pir_blowup()),
        index_stats.pir_blowup() > 1.0,
    );
    (
        vec![corpus_table, index_table],
        vec![ScenarioReport::close("stats", inv)],
    )
}
