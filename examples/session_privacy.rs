//! Session-level privacy (extension beyond the paper): an adversary who
//! aggregates belief over the WHOLE query log can still accumulate
//! evidence across many per-cycle-certified queries on the same topic.
//! The session-aware mode certifies (ε1, ε2) against the entire trace.
//!
//! Run with:
//! ```text
//! cargo run --release --example session_privacy
//! ```

use toppriv::core::{BeliefEngine, GhostConfig, GhostGenerator, SessionTracker};
use toppriv::corpus::{generate_workload, WorkloadConfig};
use toppriv::{CorpusConfig, PrivacyRequirement};

fn main() {
    let (corpus, _engine, model) = toppriv::build_demo_stack(
        CorpusConfig {
            num_docs: 800,
            num_topics: 12,
            terms_per_topic: 80,
            ..CorpusConfig::default()
        },
        24,
        40,
    );
    let queries = generate_workload(
        &corpus,
        &WorkloadConfig {
            num_queries: 60,
            two_topic_prob: 0.0,
            ..WorkloadConfig::default()
        },
    );
    // Build one session: 6 queries on the same sensitive topic.
    let topic = queries[0].target_topics[0];
    let session: Vec<_> = queries
        .iter()
        .filter(|q| q.target_topics == vec![topic])
        .take(6)
        .collect();
    println!(
        "session: {} queries on ground-truth topic {topic}\n",
        session.len()
    );

    let requirement = PrivacyRequirement::paper_default();
    let belief = BeliefEngine::new(model.clone());
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        requirement,
        GhostConfig::default(),
    );

    for (name, session_aware) in [
        ("per-cycle TopPriv", false),
        ("session-aware TopPriv", true),
    ] {
        let mut tracker = SessionTracker::new();
        let mut intention = Vec::new();
        println!("--- {name}");
        for (i, q) in session.iter().enumerate() {
            let (result, posteriors) = if session_aware {
                generator.generate_with_history(&q.tokens, tracker.posteriors())
            } else {
                generator.generate_with_posteriors(&q.tokens)
            };
            if intention.is_empty() {
                intention = result.intention.clone();
            }
            tracker.record_cycle_posteriors(&result, &posteriors);
            let report = tracker.report(&belief, &intention);
            println!(
                "  after query {}: cycle v={}, cycle exposure {:.2}%, TRACE exposure {:.2}% ({} queries logged)",
                i + 1,
                result.cycle_len(),
                result.metrics.exposure * 100.0,
                report.trace_exposure * 100.0,
                report.queries_seen
            );
        }
        println!();
    }
    println!(
        "Per-cycle certification bounds each cycle at eps2 = {:.0}%, but the\n\
         aggregated trace can drift above it; the session-aware mode keeps\n\
         the whole-trace exposure under eps2 by spending extra ghosts.",
        requirement.eps2 * 100.0
    );
}
