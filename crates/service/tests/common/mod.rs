//! The stack the service's integration tests share: a synthetic corpus,
//! a single and a 4-shard engine over it, an LDA model with as many
//! topics as the corpus, and a workload of its queries.

#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;
use toppriv_service::{SessionMetrics, SubmitOutcome};
use tsearch_corpus::WorkloadConfig;
use tsearch_corpus::{generate_workload, BenchmarkQuery, CorpusConfig, SyntheticCorpus};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel::TfIdfCosine, SearchEngine, ShardedEngine};
use tsearch_text::Analyzer;

pub struct Stack {
    pub corpus: SyntheticCorpus,
    pub engine: Arc<SearchEngine>,
    pub sharded: Arc<ShardedEngine>,
    pub model: Arc<LdaModel>,
    pub queries: Vec<BenchmarkQuery>,
}

/// A stack over `docs` documents drawn under `seed` from `topics` topics.
pub fn stack(seed: u64, topics: usize, docs: usize) -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: docs,
        num_topics: topics,
        terms_per_topic: 40,
        seed,
        ..CorpusConfig::default()
    });
    let (docs, vocab) = (corpus.token_docs(), corpus.vocab.clone());
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = SearchEngine::build(&docs, &texts, Analyzer::new(), vocab.clone(), TfIdfCosine);
    let sharded = ShardedEngine::build(&docs, &texts, Analyzer::new(), vocab, TfIdfCosine, 4);
    let lda = LdaConfig {
        iterations: 15,
        ..LdaConfig::with_topics(topics)
    };
    let model = LdaTrainer::train(&docs, corpus.vocab.len(), lda);
    let workload = WorkloadConfig {
        num_queries: 16,
        seed: seed ^ 0x9E37,
        ..WorkloadConfig::default()
    };
    Stack {
        queries: generate_workload(&corpus, &workload),
        corpus,
        engine: Arc::new(engine),
        sharded: Arc::new(sharded),
        model: Arc::new(model),
    }
}

/// Genuine hits per (session, cycle), score compared bitwise.
pub fn genuine_hits(outcomes: &[SubmitOutcome]) -> HashMap<(String, usize), Vec<(u32, u64)>> {
    let mut map = HashMap::new();
    for o in outcomes.iter().filter(|o| o.is_genuine) {
        let hits = o
            .hits
            .iter()
            .map(|h| (h.doc_id, h.score.to_bits()))
            .collect();
        let prev = map.insert((o.session.clone(), o.cycle_id), hits);
        assert!(prev.is_none(), "one genuine outcome per cycle");
    }
    map
}

/// Every field of `m`, each float by its bits.
pub fn metric_bits(m: &SessionMetrics) -> (&str, u64, u64, Vec<u64>) {
    let f = [m.mean_cycle_len, m.mean_exposure, m.worst_exposure];
    let g = [m.mean_mask_level, m.satisfied_rate, m.trace_exposure];
    let floats = f.iter().chain(&g).map(|x| x.to_bits()).collect();
    (&m.session, m.cycles, m.queries_emitted, floats)
}
