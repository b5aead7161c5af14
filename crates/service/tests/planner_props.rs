//! Property test for the cross-session ghost planner: over random
//! corpora/models, fleet seeds, tenant counts (2–8), and workloads,
//! every tenant's genuine rankings under planner-coalesced submissions
//! are **identical** to the unplanned baseline — decoy sharing may only
//! change who pays for a submission, never what any tenant's genuine
//! queries return.
//!
//! Corpus + LDA builds are the expensive part, so the sampled corpus
//! dimension selects from a small pool of lazily-built random stacks
//! (distinct seeds, sizes, and topic counts) while fleet seeds, tenant
//! counts, and query assignment stay fully sampled per case.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use toppriv_service::{CycleScheduler, GhostPlanner, SessionManager, SubmitOutcome};
use tsearch_corpus::{
    generate_workload, BenchmarkQuery, CorpusConfig, SyntheticCorpus, WorkloadConfig,
};
use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};
use tsearch_search::{ScoringModel, SearchEngine};
use tsearch_text::Analyzer;

struct Stack {
    engine: Arc<SearchEngine>,
    model: Arc<LdaModel>,
    queries: Vec<BenchmarkQuery>,
}

fn build_stack(seed: u64, num_topics: usize, num_docs: usize) -> Stack {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs,
        num_topics,
        terms_per_topic: 40,
        seed,
        ..CorpusConfig::default()
    });
    let docs = corpus.token_docs();
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text.clone()).collect();
    let engine = Arc::new(SearchEngine::build(
        &docs,
        &texts,
        Analyzer::new(),
        corpus.vocab.clone(),
        ScoringModel::TfIdfCosine,
    ));
    let model = Arc::new(LdaTrainer::train(
        &docs,
        corpus.vocab.len(),
        LdaConfig {
            iterations: 12,
            ..LdaConfig::with_topics(num_topics)
        },
    ));
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 12,
            seed: seed ^ 0x9E37,
            ..WorkloadConfig::default()
        },
    );
    Stack {
        engine,
        model,
        queries,
    }
}

/// Pool of random stacks, built once each.
fn stacks() -> &'static [Stack; 3] {
    static STACKS: OnceLock<[Stack; 3]> = OnceLock::new();
    STACKS.get_or_init(|| {
        [
            build_stack(11, 4, 160),
            build_stack(5003, 6, 200),
            build_stack(0xBEEF, 8, 240),
        ]
    })
}

/// Genuine hits per (session, cycle), score compared bitwise.
fn genuine_hits(outcomes: &[SubmitOutcome]) -> HashMap<(String, usize), Vec<(u32, u64)>> {
    let mut map = HashMap::new();
    for o in outcomes {
        if o.is_genuine {
            let prev = map.insert(
                (o.session.clone(), o.cycle_id),
                o.hits
                    .iter()
                    .map(|h| (h.doc_id, h.score.to_bits()))
                    .collect::<Vec<_>>(),
            );
            assert!(prev.is_none(), "one genuine outcome per cycle");
        }
    }
    map
}

proptest! {
    #[test]
    fn planned_rankings_match_unplanned_baseline(
        stack_idx in 0usize..3,
        tenants in 2usize..=8,
        fleet_seed: u64,
        query_salt in 0usize..64,
        rounds in 1usize..=2,
    ) {
        let stack = &stacks()[stack_idx];
        let baseline = Arc::new(
            SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_cache(2048)
                .with_fleet_seed(fleet_seed),
        );
        let planned = Arc::new(
            SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_cache(2048)
                .with_fleet_seed(fleet_seed),
        );
        for m in [&baseline, &planned] {
            for s in 0..tenants {
                m.open_session(&format!("t{s}")).unwrap();
            }
        }
        // Baseline: every tenant plans alone, no sharing.
        let mut plans = Vec::new();
        for r in 0..rounds {
            for s in 0..tenants {
                let q = &stack.queries[(query_salt + s + r * 3) % stack.queries.len()];
                plans.push(baseline.plan_cycle(&format!("t{s}"), &q.tokens, 10).unwrap());
            }
        }
        let base = CycleScheduler::for_manager(&baseline, 2).run(plans);

        // Planner: identical workload, decoys shared across tenants.
        let planner = GhostPlanner::new(planned.clone());
        for r in 0..rounds {
            for s in 0..tenants {
                let q = &stack.queries[(query_salt + s + r * 3) % stack.queries.len()];
                planner.plan_cycle(&format!("t{s}"), &q.tokens, 10).unwrap();
            }
        }
        let shared = CycleScheduler::for_manager(&planned, 2).run(vec![planner.take_queue()]);

        prop_assert_eq!(genuine_hits(&base), genuine_hits(&shared));
    }
}
