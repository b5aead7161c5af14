//! The shared experiment context: corpus, workload, engine, and the bank
//! of trained LDA models (disk-cached so repeated harness runs are fast).

use crate::scale::Scale;
use std::path::Path;
use std::sync::Arc;
use toppriv_service::{AuditConfig, SearchTier, SessionManager};
use tsearch_corpus::{generate_workload, BenchmarkQuery, SyntheticCorpus};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine, ShardedEngine};
use tsearch_store::{kind, ArtifactStore};
use tsearch_text::Analyzer;

/// The fleet secret of every fleet the `audit` and `planner` rows build,
/// so their ghost workloads repeat run to run.
pub const FLEET_SEED: u64 = 0x5CE7A210;

/// Shards of a fleet's search tier.
pub const FLEET_SHARDS: usize = 4;

/// Scheduler workers per fleet drain.
pub const FLEET_WORKERS: usize = 4;

/// Results fetched per fleet query.
pub const TOP_K: usize = 10;

/// Everything the experiments share.
pub struct ExperimentContext {
    /// The scale preset used.
    pub scale: Scale,
    /// The synthetic corpus (WSJ substitute).
    pub corpus: SyntheticCorpus,
    /// The benchmark workload (TREC substitute).
    pub queries: Vec<BenchmarkQuery>,
    /// The unmodified enterprise search engine, shared with the service
    /// layer and the worker pools of the load experiments.
    pub engine: Arc<SearchEngine>,
    /// Trained LDA models, ascending by K, each behind an [`Arc`] so
    /// belief engines and service sessions can share them without copies.
    pub models: Vec<(usize, Arc<LdaModel>)>,
}

impl ExperimentContext {
    /// Builds the context, training (or cache-loading) all LDA models.
    /// Training runs in parallel across topic counts.
    pub fn build(scale: Scale, cache_dir: Option<&Path>) -> Self {
        let corpus = SyntheticCorpus::generate(scale.corpus.clone());
        let queries = generate_workload(&corpus, &scale.workload);
        let docs = corpus.token_docs();
        let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
        let engine = Arc::new(SearchEngine::build(
            &docs,
            &texts,
            Analyzer::new(),
            corpus.vocab.clone(),
            ScoringModel::TfIdfCosine,
        ));
        let models = train_models(&docs, corpus.vocab.len(), &scale, cache_dir);
        ExperimentContext {
            scale,
            corpus,
            queries,
            engine,
            models,
        }
    }

    /// Fetches the model with the given K.
    pub fn model(&self, k: usize) -> &Arc<LdaModel> {
        &self
            .models
            .iter()
            .find(|(mk, _)| *mk == k)
            .unwrap_or_else(|| panic!("no model with K={k}"))
            .1
    }

    /// The default ("LDA200"-equivalent) model.
    pub fn default_model(&self) -> &Arc<LdaModel> {
        self.model(self.scale.default_k)
    }

    /// A fleet manager on a term-sharded tier of its own over the
    /// context's corpus (the context's engine keeps its query log to the
    /// experiments that read it), with a result cache, [`FLEET_SEED`],
    /// and the audit plane when `audited`.
    pub fn fleet_manager(&self, audited: bool) -> Arc<SessionManager> {
        let docs = self.corpus.token_docs();
        let texts: Vec<String> = self.corpus.docs.iter().map(|d| d.text.clone()).collect();
        let tier = SearchTier::Sharded(Arc::new(ShardedEngine::build(
            &docs,
            &texts,
            Analyzer::new(),
            self.corpus.vocab.clone(),
            self.engine.model(),
            FLEET_SHARDS,
        )));
        let manager = SessionManager::with_tier(tier, self.default_model().clone())
            .with_cache(4096)
            .with_fleet_seed(FLEET_SEED);
        Arc::new(match audited {
            true => manager.with_auditor(AuditConfig::default()),
            false => manager,
        })
    }

    /// The queries used for sweep points (first `queries_per_setting`).
    pub fn sweep_queries(&self) -> &[BenchmarkQuery] {
        &self.queries[..self.scale.queries_per_setting.min(self.queries.len())]
    }
}

/// Trains (or cache-loads) one LDA model per topic count. Training runs
/// in parallel; the checksummed artifact cache is read before and written
/// after from the single calling thread (the [`tsearch_store`] manifest
/// has one writer at a time).
pub fn train_models(
    docs: &[&[u32]],
    vocab_size: usize,
    scale: &Scale,
    cache_dir: Option<&Path>,
) -> Vec<(usize, Arc<LdaModel>)> {
    let mut store = cache_dir.and_then(|dir| match ArtifactStore::open(dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("[context] model cache unavailable ({e}); training fresh");
            None
        }
    });
    // Phase 1: serve cache hits. A corrupt or mismatched artifact is
    // treated as a miss — the checksum guarantees we never train against
    // a torn model file.
    let mut out: Vec<(usize, Arc<LdaModel>)> = Vec::new();
    let mut missing: Vec<usize> = Vec::new();
    for &k in &scale.topic_counts {
        let hit = store.as_ref().and_then(|s| {
            let bytes = s.get(&cache_name(scale, k), kind::LDA_MODEL).ok()?;
            let model = tsearch_lda::decode(&bytes).ok()?;
            (model.num_topics() == k && model.vocab_size() == vocab_size).then(|| Arc::new(model))
        });
        match hit {
            Some(model) => out.push((k, model)),
            None => missing.push(k),
        }
    }
    // Phase 2: train the misses in parallel.
    let trained: Vec<(usize, Arc<LdaModel>)> = std::thread::scope(|s| {
        let handles: Vec<_> = missing
            .iter()
            .map(|&k| s.spawn(move || (k, Arc::new(train_one(docs, vocab_size, scale, k)))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trainer panicked"))
            .collect()
    });
    // Phase 3: persist the fresh models.
    if let Some(store) = store.as_mut() {
        for (k, model) in &trained {
            let bytes = tsearch_lda::encode(model);
            if let Err(e) = store.put(&cache_name(scale, *k), kind::LDA_MODEL, &bytes) {
                eprintln!("[context] failed to cache model K={k}: {e}");
            }
        }
    }
    out.extend(trained);
    out.sort_by_key(|&(k, _)| k);
    out
}

/// Trains a single model (no cache involvement).
pub fn train_one(docs: &[&[u32]], vocab_size: usize, scale: &Scale, k: usize) -> LdaModel {
    LdaTrainer::train(
        docs,
        vocab_size,
        LdaConfig {
            iterations: scale.lda_iterations,
            ..LdaConfig::with_topics(k)
        },
    )
}

/// Cache artifact name for one model: every parameter that changes the
/// trained matrix is part of the name.
fn cache_name(scale: &Scale, k: usize) -> String {
    format!(
        "lda_{}_k{}_it{}_seed{}_d{}",
        scale.name, k, scale.lda_iterations, scale.corpus.seed, scale.corpus.num_docs
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_context_builds() {
        let ctx = ExperimentContext::build(Scale::quick(), None);
        assert_eq!(ctx.models.len(), 3);
        assert_eq!(ctx.default_model().num_topics(), 20);
        assert_eq!(ctx.queries.len(), 40);
        assert_eq!(ctx.sweep_queries().len(), 10);
        assert!(ctx.engine.index().num_docs() == ctx.corpus.num_docs());
        for (k, model) in &ctx.models {
            assert_eq!(model.num_topics(), *k);
            model.validate().unwrap();
        }
    }

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join("toppriv-ctx-cache-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut scale = Scale::quick();
        scale.topic_counts = vec![10];
        scale.default_k = 10;
        let corpus = SyntheticCorpus::generate(scale.corpus.clone());
        let docs = corpus.token_docs();
        let m1 = &train_models(&docs, corpus.vocab.len(), &scale, Some(&dir))[0].1;
        // Second call must hit the cache and return identical phi.
        let m2 = &train_models(&docs, corpus.vocab.len(), &scale, Some(&dir))[0].1;
        for w in 0..corpus.vocab.len() as u32 {
            for t in 0..10 {
                assert!((m1.phi(t, w) - m2.phi(t, w)).abs() < 1e-6);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_survives_corruption() {
        // A flipped byte in a cached model must lead to a retrain, never
        // to silently loading garbage probabilities.
        let dir = std::env::temp_dir().join("toppriv-ctx-corrupt-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut scale = Scale::quick();
        scale.topic_counts = vec![10];
        scale.default_k = 10;
        let corpus = SyntheticCorpus::generate(scale.corpus.clone());
        let docs = corpus.token_docs();
        let m1 = train_models(&docs, corpus.vocab.len(), &scale, Some(&dir));
        // Corrupt every artifact file on disk.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some("tps") {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        let m2 = train_models(&docs, corpus.vocab.len(), &scale, Some(&dir));
        // Deterministic trainer: the retrained model equals the original.
        for t in 0..10 {
            assert!((m1[0].1.phi(t, 0) - m2[0].1.phi(t, 0)).abs() < 1e-6);
        }
        m2[0].1.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
