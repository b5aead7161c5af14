//! Per-session privacy under cross-session decoy sharing: a ≥64-session
//! churn storm runs with the [`GhostPlanner`] enabled (ghost reuse +
//! coalesced shared submissions), all shards collude and merge their
//! query logs, and a supervised naive-Bayes classifier attacks the
//! merged trace. Sharing decoys across tenants must not weaken any
//! single tenant's `(ε1, ε2)` story:
//!
//! - every cycle (including planner-rewritten ones) passes the fleet
//!   masking invariant, and the online audit plane stays healthy;
//! - the merged log plus cache hits still covers every per-subscriber
//!   outcome — a shared submission reaches the engine once but debits
//!   (and is audited for) every subscribing tenant;
//! - the classifier's genuine-identification and topic-recovery rates
//!   stay within the same bounds as the unplanned baseline storm.

use std::sync::Arc;
use toppriv_adversary::{merge_shard_logs, run_classifier_attack, NaiveBayes};
use toppriv_bench::scenarios::churn::{run_fleet_planned, ChurnConfig};
use toppriv_core::PrivacyRequirement;
use toppriv_service::{AuditConfig, SearchTier, SessionManager};
use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
use tsearch_lda::{LdaConfig, LdaTrainer};
use tsearch_search::{ScoringModel, ShardedEngine};
use tsearch_text::Analyzer;

#[test]
fn planner_sharing_preserves_per_session_privacy_at_scale() {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 300,
        num_topics: 8,
        terms_per_topic: 60,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(ShardedEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
        4,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 25,
            ..LdaConfig::with_topics(16)
        },
    ));
    let manager = Arc::new(
        SessionManager::with_tier(SearchTier::Sharded(engine), model)
            .with_cache(4096)
            .with_fleet_seed(0x9105751)
            .with_auditor(AuditConfig::default()),
    );
    // A modest query pool shared by many tenants: realistic overlap for
    // the planner to exploit, and the hard case for privacy (maximum
    // cross-tenant correlation in the merged logs).
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 24,
            ..WorkloadConfig::default()
        },
    );

    let cfg = ChurnConfig {
        join_per_wave: 24,
        waves: 3,
        cycles_per_session: 1,
    };
    let art = run_fleet_planned(manager, &queries, &cfg);
    assert!(art.joined >= 64, "storm opened {} sessions", art.joined);
    assert!(
        art.invariants.pass,
        "planned churn invariants must hold at scale: {:?}",
        art.invariants
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect::<Vec<_>>()
    );

    // The planner actually shared work, and the engine saw fewer
    // submissions than tenants were debited for.
    let global = art.manager.metrics_registry().snapshot();
    assert!(
        global.planner_coalesced > 0,
        "shared workload must coalesce submissions"
    );
    assert!(
        global.engine_submits < global.submitted,
        "engine submissions {} must undercut per-tenant submissions {}",
        global.engine_submits,
        global.submitted
    );

    // The online audit plane audited every subscriber and stayed green.
    let health = art
        .manager
        .auditor()
        .expect("audit plane attached")
        .health();
    assert!(
        health.healthy,
        "audit plane must stay healthy under sharing: {} breach(es)",
        health.breaches
    );
    assert!(health.cycles_audited > 0, "auditor saw the storm");

    // Colluding shards reassemble the trace. A shared submission reaches
    // the engine once (or zero times, if cached) yet drains one outcome
    // per subscriber — the extra subscribers are counted as cache hits,
    // so the coverage identity must still close exactly.
    let tier = art.manager.tier();
    let shard_logs = tier.as_sharded().expect("sharded tier").shard_logs();
    let merged = merge_shard_logs(&shard_logs);
    let cache_hits = art
        .manager
        .metrics_registry()
        .registry()
        .counter_total(toppriv_service::metrics::M_CACHE_HITS) as usize;
    assert_eq!(
        merged.len() + cache_hits,
        art.drained,
        "merged log + cache hits must cover every per-subscriber outcome"
    );
    assert!(!merged.is_empty(), "colluding shards saw the trace");

    // Strongest classifier: trained on ground-truth document taxonomy.
    let labeled: Vec<(&[u32], usize)> = corpus
        .docs
        .iter()
        .map(|d| {
            let label = d
                .mixture
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weight"))
                .map(|&(t, _)| t)
                .expect("non-empty mixture");
            (d.tokens.as_slice(), label)
        })
        .collect();
    let nb = NaiveBayes::train(&labeled, corpus.num_topics(), corpus.vocab.len(), 1.0);
    let report = run_classifier_attack(&nb, &art.cycles, &art.truths);
    assert!(
        report.cycles >= 64,
        "attack evaluated {} cycles",
        report.cycles
    );
    assert!(
        report.unprotected_recovery > 2.0 * report.topic_chance,
        "unprotected recovery {:.3} should beat chance {:.3} clearly",
        report.unprotected_recovery,
        report.topic_chance
    );
    // ε1 bound: the genuine query hides among the (shared) decoys.
    let eps1 = PrivacyRequirement::paper_default().eps1;
    assert!(
        report.genuine_identification <= report.genuine_chance + eps1,
        "genuine identification {:.3} exceeds chance {:.3} + ε1 {eps1}",
        report.genuine_identification,
        report.genuine_chance
    );
    // ε2 story: the pooled cycle must not leak like the raw query does.
    assert!(
        report.cycle_recovery < report.unprotected_recovery,
        "cycle recovery {:.3} should be damped below the oracle {:.3}",
        report.cycle_recovery,
        report.unprotected_recovery
    );
}
