//! Session-level (trace-wide) privacy — an extension beyond the paper.
//!
//! The paper certifies each query's cycle in isolation. An adversary who
//! aggregates belief **across a whole session** (Equation 2 applied to the
//! full query log) can still accumulate evidence when the user keeps
//! querying the same topic: every cycle adds `Pr(t|qu)/υ` of fresh mass on
//! the genuine topic, while each cycle's masking topics are freshly
//! random and average out.
//!
//! [`SessionTracker`] implements that aggregating adversary, and
//! [`GhostGenerator::generate_with_history`] extends the TopPriv loop to
//! certify `B(t | history ∪ C) ≤ ε2` — i.e. `(ε1, ε2)`-privacy over the
//! entire trace rather than per cycle.

use crate::belief::BeliefEngine;
use crate::ghost::{add_into, CycleResult, GhostGenerator};
use crate::metrics::exposure;
use serde::{Deserialize, Serialize};
use tsearch_text::TermId;

/// The aggregating adversary's view of one user's whole trace.
#[derive(Debug, Clone, Default)]
pub struct SessionTracker {
    /// Per-query posteriors of every query the engine has seen from this
    /// user, in arrival order (ghosts included — the adversary cannot
    /// tell them apart).
    posteriors: Vec<Vec<f64>>,
    /// Ground truth: indices in `posteriors` that were genuine (for
    /// evaluation only).
    genuine: Vec<usize>,
}

/// Summary of trace-level leakage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// `B(t | whole trace)` for every topic.
    pub trace_boosts: Vec<f64>,
    /// `max_{t∈U} B(t|trace)` for the union of all genuine intentions.
    pub trace_exposure: f64,
    /// Number of queries observed.
    pub queries_seen: usize,
}

impl SessionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a tracker from previously spilled parts (see
    /// [`SessionTracker::posteriors`] and [`SessionTracker::genuine`]).
    /// Genuine indices outside `posteriors` are rejected as corrupt.
    pub fn from_parts(posteriors: Vec<Vec<f64>>, genuine: Vec<usize>) -> Option<Self> {
        if genuine.iter().any(|&g| g >= posteriors.len()) {
            return None;
        }
        Some(Self {
            posteriors,
            genuine,
        })
    }

    /// Ground-truth genuine indices into [`SessionTracker::posteriors`]
    /// (evaluation and spill/restore only — a real adversary never sees
    /// these).
    pub fn genuine(&self) -> &[usize] {
        &self.genuine
    }

    /// Records one protected cycle (in its shuffled submission order),
    /// inferring each member — for evaluation code that holds only a
    /// [`CycleResult`].
    pub fn record_cycle(&mut self, belief: &BeliefEngine, result: &CycleResult) {
        for (i, q) in result.cycle.iter().enumerate() {
            if q.is_genuine {
                self.genuine.push(self.posteriors.len() + i);
            }
        }
        for q in &result.cycle {
            self.posteriors.push(belief.posterior(&q.tokens));
        }
    }

    /// Records one protected cycle from **already-inferred** per-member
    /// posteriors (aligned with `result.cycle`) — what
    /// [`GhostGenerator::generate_with_posteriors`] and
    /// [`GhostGenerator::generate_with_history`] hand back. Equivalent to
    /// [`SessionTracker::record_cycle`] when the posteriors came from the
    /// same belief engine — inference is deterministic — but callers that
    /// already hold them (the service's sessions, or a planner that
    /// substituted members with cross-tenant donors) account the cycle
    /// without inferring any member a second time.
    pub fn record_cycle_posteriors(&mut self, result: &CycleResult, posteriors: &[Vec<f64>]) {
        assert_eq!(
            result.cycle.len(),
            posteriors.len(),
            "posteriors must align with the cycle members"
        );
        for (i, q) in result.cycle.iter().enumerate() {
            if q.is_genuine {
                self.genuine.push(self.posteriors.len() + i);
            }
        }
        self.posteriors.extend(posteriors.iter().cloned());
    }

    /// Records a single unprotected query.
    pub fn record_plain(&mut self, belief: &BeliefEngine, tokens: &[TermId]) {
        self.genuine.push(self.posteriors.len());
        self.posteriors.push(belief.posterior(tokens));
    }

    /// Number of queries observed so far.
    pub fn len(&self) -> usize {
        self.posteriors.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.posteriors.is_empty()
    }

    /// The per-query posteriors accumulated so far (the adversary's raw
    /// material; also what history-aware generation consumes).
    pub fn posteriors(&self) -> &[Vec<f64>] {
        &self.posteriors
    }

    /// Trace-level boosts `B(t | q1..qn)` per Equation (2) over the whole
    /// log.
    pub fn trace_boosts(&self, belief: &BeliefEngine) -> Vec<f64> {
        if self.posteriors.is_empty() {
            return vec![0.0; belief.num_topics()];
        }
        belief.cycle_boost(&self.posteriors)
    }

    /// Full trace report against a set of intention topics.
    pub fn report(&self, belief: &BeliefEngine, intention: &[usize]) -> TraceReport {
        let trace_boosts = self.trace_boosts(belief);
        TraceReport {
            trace_exposure: exposure(&trace_boosts, intention),
            queries_seen: self.posteriors.len(),
            trace_boosts,
        }
    }
}

impl GhostGenerator {
    /// Session-aware variant of [`GhostGenerator::generate_with_posteriors`]:
    /// the stopping rule certifies `B(t | history ∪ C) ≤ ε2` for all
    /// `t ∈ U`, so the *whole trace* (as aggregated by Equation 2) stays
    /// innocuous, not just the current cycle. Returns the cycle and its
    /// members' posteriors (aligned with `cycle`), which is what the
    /// caller appends to the history it passes next time.
    ///
    /// Implementation note: the trace posterior is the mean over
    /// `history ∪ C`; the loop re-evaluates it after each candidate ghost
    /// exactly like the per-cycle algorithm, from the posteriors the
    /// generator already inferred: the history is summed once and no
    /// member is inferred twice.
    pub fn generate_with_history(
        &self,
        user_tokens: &[TermId],
        history: &[Vec<f64>],
    ) -> (CycleResult, Vec<Vec<f64>>) {
        // Reuse the per-cycle machinery, then extend with history-aware
        // ghosts if the trace condition is still violated.
        let (mut result, mut posteriors) = self.generate_with_posteriors(user_tokens);
        if history.is_empty() {
            return (result, posteriors);
        }
        let prior = self.belief().prior();
        let requirement = self.requirement();
        // Equation (2) over history ∪ C, summed history-first in order.
        let mut history_sum = vec![0.0f64; prior.len()];
        for posterior in history {
            add_into(&mut history_sum, posterior);
        }
        let trace_boosts_with = |cycle: &[Vec<f64>]| -> Vec<f64> {
            let mut sum = history_sum.clone();
            for posterior in cycle {
                add_into(&mut sum, posterior);
            }
            let support = (history.len() + cycle.len()) as f64;
            sum.iter()
                .zip(prior)
                .map(|(&s, &pri)| s / support - pri)
                .collect()
        };
        let mut trace_boosts = trace_boosts_with(&posteriors);
        // Keep adding ghosts (fixed-target mode, one at a time) until the
        // trace condition holds or the cycle cap is reached.
        let cap = 64usize;
        while !requirement.is_satisfied(&trace_boosts, &result.intention)
            && result.cycle_len() < cap
        {
            let target = result.cycle_len() + 1;
            let (extended, extended_posteriors) = self.run(user_tokens, Some(target));
            if extended.cycle_len() <= result.cycle_len() {
                break; // cannot grow further
            }
            (result, posteriors) = (extended, extended_posteriors);
            trace_boosts = trace_boosts_with(&posteriors);
        }
        result.satisfied = requirement.is_satisfied(&trace_boosts, &result.intention);
        result.cycle_boosts = trace_boosts;
        result.metrics.exposure = exposure(&result.cycle_boosts, &result.intention);
        result.metrics.cycle_len = result.cycle_len();
        (result, posteriors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::GhostConfig;
    use crate::privacy::PrivacyRequirement;
    use tsearch_lda::{LdaConfig, LdaModel, LdaTrainer};

    fn trained_model() -> std::sync::Arc<LdaModel> {
        let mut docs = Vec::new();
        for d in 0..120u32 {
            let base = (d % 4) * 8;
            docs.push((0..40).map(|i| base + (i % 8)).collect::<Vec<TermId>>());
        }
        let refs: Vec<&[TermId]> = docs.iter().map(|d| d.as_slice()).collect();
        std::sync::Arc::new(LdaTrainer::train(
            &refs,
            32,
            LdaConfig {
                iterations: 80,
                alpha: Some(0.3),
                ..LdaConfig::with_topics(4)
            },
        ))
    }

    #[test]
    fn unprotected_trace_accumulates_exposure() {
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let mut tracker = SessionTracker::new();
        let intention: Vec<usize> = {
            let boosts = belief.boost(&[0, 1, 2, 3]);
            (0..4).filter(|&t| boosts[t] > 0.1).collect()
        };
        let mut prev = 0.0;
        for _ in 0..5 {
            tracker.record_plain(&belief, &[0, 1, 2, 3]);
            let r = tracker.report(&belief, &intention);
            assert!(r.trace_exposure >= prev - 1e-9, "exposure never drops");
            prev = r.trace_exposure;
        }
        assert!(prev > 0.05, "repeated same-topic queries leak: {prev}");
    }

    #[test]
    fn per_cycle_protection_still_leaks_over_a_session() {
        // Protect each query per-cycle, then aggregate: the trace exposure
        // typically sits above a freshly certified single cycle because
        // genuine mass accumulates while masks rotate.
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let requirement = PrivacyRequirement::new(0.10, 0.02).unwrap();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig::default(),
        );
        let mut protected = SessionTracker::new();
        let mut unprotected = SessionTracker::new();
        let mut intention = Vec::new();
        for i in 0..6 {
            // Slight per-query variation, same topic block.
            let q: Vec<TermId> = vec![i % 8, (i + 1) % 8, (i + 2) % 8, (i + 3) % 8];
            let result = generator.generate(&q);
            if i == 0 {
                intention = result.intention.clone();
            }
            protected.record_cycle(&belief, &result);
            unprotected.record_plain(&belief, &q);
        }
        let protected_report = protected.report(&belief, &intention);
        let unprotected_report = unprotected.report(&belief, &intention);
        assert_eq!(protected_report.queries_seen, protected.len());
        // Protection must reduce trace-level exposure dramatically; the
        // unprotected same-topic session leaks heavily.
        assert!(
            protected_report.trace_exposure < unprotected_report.trace_exposure,
            "protected {} vs unprotected {}",
            protected_report.trace_exposure,
            unprotected_report.trace_exposure
        );
        assert!(unprotected_report.trace_exposure > 0.05);
    }

    #[test]
    fn history_aware_generation_caps_trace_exposure() {
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let requirement = PrivacyRequirement::new(0.10, 0.03).unwrap();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig::default(),
        );
        let mut tracker = SessionTracker::new();
        let mut all_satisfied = true;
        for i in 0..5 {
            let q: Vec<TermId> = vec![i % 8, (i + 1) % 8, (i + 2) % 8];
            let (result, posteriors) = generator.generate_with_history(&q, tracker.posteriors());
            all_satisfied &= result.satisfied;
            // The posteriors handed back are those of the submitted bags,
            // so recording them is recording the cycle ...
            for (member, posterior) in result.cycle.iter().zip(&posteriors) {
                assert_eq!(posterior, &belief.posterior(&member.tokens));
            }
            tracker.record_cycle_posteriors(&result, &posteriors);
            // ... and past the first cycle (which is certified alone, in
            // generation order) the certificate is the tracker's own
            // aggregation of history ∪ cycle, bit for bit.
            if i > 0 {
                assert_eq!(result.cycle_boosts, tracker.trace_boosts(&belief));
            }
            assert_eq!(
                result.satisfied,
                requirement.is_satisfied(&result.cycle_boosts, &result.intention)
            );
            if result.satisfied && !result.intention.is_empty() {
                // The reported boosts ARE the trace boosts; check against
                // the tracker's own aggregation.
                let trace = tracker.trace_boosts(&belief);
                let e = exposure(&trace, &result.intention);
                assert!(
                    e <= requirement.eps2 + 1e-9,
                    "step {i}: trace exposure {e} above eps2"
                );
            }
        }
        assert!(all_satisfied, "history-aware mode should keep satisfying");
    }

    #[test]
    fn satisfied_is_the_verdict_on_the_trace_it_reports() {
        // A one-ghost cap under a tight ε2: the cycle alone cannot be
        // certified and cannot grow.
        let model = trained_model();
        let requirement = PrivacyRequirement::new(0.10, 0.01).unwrap();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            requirement,
            GhostConfig {
                max_cycle_len: 2,
                ..GhostConfig::default()
            },
        );
        let q: Vec<TermId> = vec![0, 1, 2, 3];
        let (alone, _) = generator.generate_with_posteriors(&q);
        assert!(!alone.satisfied, "premise: the per-cycle certificate fails");
        assert!(!alone.intention.is_empty());

        // Behind a long innocuous history (every past query sat at the
        // prior) the same two members leave the *trace* within ε2, and
        // that is what `satisfied` and `cycle_boosts` report.
        let flat = vec![generator.belief().prior().to_vec(); 400];
        let (diluted, posteriors) = generator.generate_with_history(&q, &flat);
        assert_eq!(diluted.cycle_len(), alone.cycle_len());
        for (a, b) in alone.cycle.iter().zip(&diluted.cycle) {
            assert_eq!(a.tokens, b.tokens);
        }
        assert!(diluted.satisfied, "the trace is within ε2");
        assert!(diluted.metrics.exposure <= requirement.eps2);
        let mut tracker = SessionTracker::from_parts(flat, Vec::new()).unwrap();
        tracker.record_cycle_posteriors(&diluted, &posteriors);
        assert_eq!(
            diluted.cycle_boosts,
            tracker.trace_boosts(generator.belief())
        );

        // And the other way round: a history of the genuine query itself
        // keeps the trace above ε2 whatever two members are added.
        let own = vec![generator.belief().posterior(&q); 50];
        let (exposed, _) = generator.generate_with_history(&q, &own);
        assert!(!exposed.satisfied);
        assert!(exposed.metrics.exposure > requirement.eps2);
    }

    #[test]
    fn empty_history_is_equivalent_to_plain_generate() {
        let model = trained_model();
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.05).unwrap(),
            GhostConfig::default(),
        );
        let a = generator.generate(&[0, 1, 2]);
        let (b, _) = generator.generate_with_history(&[0, 1, 2], &[]);
        assert_eq!(a.cycle_len(), b.cycle_len());
        for (qa, qb) in a.cycle.iter().zip(&b.cycle) {
            assert_eq!(qa.tokens, qb.tokens);
        }
    }

    #[test]
    fn tracker_bookkeeping() {
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let mut tracker = SessionTracker::new();
        assert!(tracker.is_empty());
        tracker.record_plain(&belief, &[0, 1]);
        assert_eq!(tracker.len(), 1);
        let boosts = tracker.trace_boosts(&belief);
        assert_eq!(boosts.len(), 4);
        let sum: f64 = boosts.iter().sum();
        assert!(sum.abs() < 1e-9);
    }

    #[test]
    fn record_cycle_posteriors_matches_record_cycle() {
        // Recording from pre-inferred posteriors must produce exactly the
        // state record_cycle builds by inferring each member itself.
        let model = trained_model();
        let belief = BeliefEngine::new(model.clone());
        let generator = GhostGenerator::new(
            BeliefEngine::new(model.clone()),
            PrivacyRequirement::new(0.10, 0.03).unwrap(),
            GhostConfig::default(),
        );
        let result = generator.generate(&[0, 1, 2]);
        let posteriors: Vec<Vec<f64>> = result
            .cycle
            .iter()
            .map(|q| belief.posterior(&q.tokens))
            .collect();
        let mut inferred = SessionTracker::new();
        inferred.record_cycle(&belief, &result);
        let mut precomputed = SessionTracker::new();
        precomputed.record_cycle_posteriors(&result, &posteriors);
        assert_eq!(inferred.genuine(), precomputed.genuine());
        assert_eq!(inferred.posteriors(), precomputed.posteriors());
    }
}
