//! Thin client: a crash-safe model cache and service tenancy.
//!
//! Section V-A of the paper flags the LDA model's training cost and
//! ~140 MB client footprint as TopPriv's main scaling obstacle. This
//! example shows the two ways the repo keeps that cost down:
//!
//! 1. train the model once and persist it in the checksummed artifact
//!    store, so a returning client reloads it instead of retraining;
//! 2. hand the client over to the `toppriv-service` layer: the same
//!    client becomes one tenant of a shared `SessionManager`, with the
//!    heavyweight model living once behind an `Arc`.
//!
//! Run with:
//! ```text
//! cargo run --release --example thin_client
//! ```

use std::sync::Arc;
use toppriv::corpus::{generate_workload, WorkloadConfig};
use toppriv::lda::{LdaConfig, LdaTrainer};
use toppriv::service::SessionManager;
use toppriv::store::{kind, ArtifactStore};
use toppriv::text::Analyzer;
use toppriv::{CorpusConfig, ScoringModel, SearchEngine};

fn main() {
    let config = CorpusConfig {
        num_docs: 1200,
        num_topics: 16,
        terms_per_topic: 80,
        ..CorpusConfig::default()
    };
    let corpus = toppriv::SyntheticCorpus::generate(config);
    let docs = corpus.token_docs();
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 6,
            ..WorkloadConfig::default()
        },
    );

    // 1. Train once, persist, reload — as across client sessions.
    let t0 = std::time::Instant::now();
    let trained = LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 40,
            ..LdaConfig::with_topics(32)
        },
    );
    println!(
        "training: {:.2}s; client footprint {:.2} MB",
        t0.elapsed().as_secs_f64(),
        trained.size_breakdown().client_bytes() as f64 / (1024.0 * 1024.0)
    );
    let dir = std::env::temp_dir().join("toppriv-thin-client");
    {
        let mut store = ArtifactStore::open(&dir).expect("open store");
        store
            .put("model", kind::LDA_MODEL, &toppriv::lda::encode(&trained))
            .expect("persist model");
    }
    let store = ArtifactStore::open(&dir).expect("reopen store");
    assert!(store.verify_all().is_empty(), "artifacts intact");
    let model =
        Arc::new(toppriv::lda::decode(&store.get("model", kind::LDA_MODEL).unwrap()).unwrap());
    assert_eq!(model.num_topics(), trained.num_topics());
    assert_eq!(model.vocab_size(), trained.vocab_size());
    println!(
        "store: {} artifact(s) verified under {}",
        store.list().count(),
        dir.display()
    );

    // 2. The same client as a service tenant: one SessionManager shares
    //    the engine and the model across any number of thin clients;
    //    the result cache absorbs the decoys tenants have in common.
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(SearchEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
    ));
    let manager = SessionManager::new(engine, model).with_cache(1024);
    for tenant in ["thin-a", "thin-b"] {
        manager.open_session(tenant).expect("fresh tenant id");
    }
    for q in &queries {
        let a = manager
            .search_tokens("thin-a", &q.tokens, 10)
            .expect("tenant open");
        let b = manager
            .search_tokens("thin-b", &q.tokens, 10)
            .expect("tenant open");
        assert_eq!(a.hits.len(), b.hits.len(), "tenants see identical results");
        assert!(
            b.cache_hits > 0,
            "the repeated cycle should come from cache"
        );
    }
    let snapshot = manager.metrics();
    println!(
        "service: {} tenants, {} submissions, cache hit rate {:.0}%, worst session exposure {:.2}%",
        snapshot.sessions.len(),
        snapshot.global.submitted,
        snapshot.global.cache_hit_rate * 100.0,
        snapshot
            .sessions
            .iter()
            .map(|m| m.worst_exposure)
            .fold(0.0f64, f64::max)
            * 100.0,
    );
    let _ = std::fs::remove_dir_all(&dir);
}
