//! Experiment `ext1` (extension beyond the paper): trace-level leakage
//! over a same-topic query session.
//!
//! A user issues a burst of queries on one sensitive topic. Three client
//! policies are compared under an adversary who aggregates belief over
//! the whole query log (Equation 2 applied to the full trace):
//!
//! 1. `unprotected` — raw queries;
//! 2. `per_cycle` — the paper's TopPriv, each cycle certified in
//!    isolation;
//! 3. `session_aware` — our extension: each cycle certified against the
//!    accumulated trace (`GhostGenerator::generate_with_history`).
//!
//! Asserts that the unprotected trace exposes the intention above ε2, and
//! that both protected policies hold ε2 over the trace of every session.

use super::Outcome;
use crate::context::ExperimentContext;
use crate::table::{f3, pct, ResultTable};
use crate::verdict::{InvariantBlock, ScenarioReport};
use toppriv_core::{
    exposure, BeliefEngine, GhostConfig, GhostGenerator, PrivacyRequirement, SessionTracker,
};

/// Queries per simulated session.
pub const SESSION_LEN: usize = 8;

/// Runs the session experiment on the default model.
pub fn run(ctx: &ExperimentContext) -> Outcome {
    let model = ctx.default_model();
    let belief = BeliefEngine::new(model.clone());
    let requirement = PrivacyRequirement::paper_default();
    let generator = GhostGenerator::new(
        BeliefEngine::new(model.clone()),
        requirement,
        GhostConfig::default(),
    );

    // Sessions: group the workload's single-topic queries by topic and
    // keep the lowest topics with enough queries.
    let mut by_topic: std::collections::BTreeMap<usize, Vec<&tsearch_corpus::BenchmarkQuery>> =
        std::collections::BTreeMap::new();
    for q in ctx.queries.iter().filter(|q| q.target_topics.len() == 1) {
        by_topic.entry(q.target_topics[0]).or_default().push(q);
    }
    let sessions: Vec<Vec<&tsearch_corpus::BenchmarkQuery>> = by_topic
        .into_values()
        .filter(|qs| qs.len() >= 3)
        .take(8)
        .map(|mut qs| {
            qs.truncate(SESSION_LEN);
            qs
        })
        .collect();

    let mut table = ResultTable::new(
        "ext1_session_leakage",
        "Trace-level exposure over same-topic sessions (default model, eps=(5%,1%))",
        vec![
            "policy".into(),
            "trace_exposure_pct".into(),
            "satisfied_eps2".into(),
            "queries_per_session".into(),
            "server_queries".into(),
            "sessions".into(),
        ],
    );

    let mut inv = InvariantBlock::default();
    for policy in ["unprotected", "per_cycle", "session_aware"] {
        let mut total_exposure = 0.0;
        let mut satisfied = 0usize;
        let mut total_session_len = 0usize;
        let mut total_server = 0usize;
        for session in &sessions {
            let mut tracker = SessionTracker::new();
            let mut intention: Vec<usize> = Vec::new();
            for q in session {
                match policy {
                    "unprotected" => tracker.record_plain(&belief, &q.tokens),
                    "per_cycle" => {
                        let (r, posteriors) = generator.generate_with_posteriors(&q.tokens);
                        if intention.is_empty() {
                            intention = r.intention.clone();
                        }
                        tracker.record_cycle_posteriors(&r, &posteriors);
                    }
                    _ => {
                        let (r, posteriors) =
                            generator.generate_with_history(&q.tokens, tracker.posteriors());
                        if intention.is_empty() {
                            intention = r.intention.clone();
                        }
                        tracker.record_cycle_posteriors(&r, &posteriors);
                    }
                }
            }
            if policy == "unprotected" && intention.is_empty() {
                let boosts = belief.boost(&session[0].tokens);
                intention = requirement.user_intention(&boosts);
            }
            let trace = tracker.trace_boosts(&belief);
            let e = exposure(&trace, &intention);
            total_exposure += e;
            if e <= requirement.eps2 {
                satisfied += 1;
            }
            total_session_len += session.len();
            total_server += tracker.len();
        }
        let n = sessions.len().max(1) as f64;
        let eps2 = pct(requirement.eps2);
        if policy == "unprotected" {
            inv.check(
                "unprotected_trace_exposed",
                format!(
                    "mean trace exposure {}% vs eps2 {eps2}%",
                    pct(total_exposure / n)
                ),
                total_exposure / n > requirement.eps2,
            );
        } else {
            inv.check(
                format!("{policy}_holds_eps2_on_every_session"),
                format!(
                    "{satisfied} of {} sessions within eps2 {eps2}%",
                    sessions.len()
                ),
                !sessions.is_empty() && satisfied == sessions.len(),
            );
        }
        table.push_row(vec![
            policy.into(),
            pct(total_exposure / n),
            f3(satisfied as f64 / n),
            f3(total_session_len as f64 / n),
            f3(total_server as f64 / n),
            sessions.len().to_string(),
        ]);
    }
    (vec![table], vec![ScenarioReport::close("session", inv)])
}
