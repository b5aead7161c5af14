//! Cross-session ghost planning: shared decoys push fleet cost below υ×.
//!
//! Every protected query costs the engine υ submissions (the cycle
//! length), so a fleet of N tenants multiplies engine load by ~υ even
//! though most decoys are interchangeable: a ghost query only has to
//! *mask* — boost some non-intention topic — and any other tenant's
//! already-planned submission with the same topic posterior masks just
//! as well. The [`GhostPlanner`] sits between
//! [`SessionManager::formulate_cycle`] and the [`crate::CycleScheduler`]
//! and exploits that in two moves:
//!
//! 1. **Reuse (substitution).** A time-decayed cross-tenant topic index
//!    tracks which masking topics the fleet is currently submitting.
//!    When a new cycle is formulated, each of its ghost members is
//!    matched against other tenants' still-queued submissions on the
//!    same dominant topic with a **disjoint intention**; if swapping the
//!    member for the donor's token bag keeps the cycle certified (an
//!    exact O(K) boost update via
//!    [`toppriv_core::substitute_in_cycle_boosts`] — no re-inference),
//!    the member is rewritten in place before the session commits it.
//! 2. **Coalescing.** Planned submissions with an identical normalized
//!    token bag and result depth ([`crate::CacheKey`]) across different
//!    tenants are merged into **one** queue entry tagged with every
//!    subscribing tenant ([`crate::SubmissionTag`]), at most eight per
//!    entry (a ninth opens a fresh entry others join). The scheduler
//!    resolves it once — one engine submission — and fans the outcome
//!    out to all subscribers; each subscriber's trace accounting was
//!    already debited at commit time with the posteriors *as submitted*,
//!    exactly as if it owned the decoy.
//!
//! ## Privacy argument
//!
//! Per-session accounting is untouched: a session debits the posterior
//! of every member it committed, shared or not, so Equation 2's trace
//! exposure and the per-cycle `(ε1, ε2)` certificate are computed over
//! the session's true submission stream. Substitutions are only accepted
//! when the rewritten cycle still certifies (exposure within the mask
//! and not above the pre-rewrite exposure) and donor/acceptor intentions
//! are disjoint — a donor never amplifies a topic the acceptor is trying
//! to hide, and vice versa. Coalescing merges only *identical* token
//! bags, which the engine could never tell apart anyway (the shared
//! result cache already served duplicates from one computation; the
//! planner merely avoids enqueueing them twice), so the engine-side
//! adversary's query log only ever *shrinks*. The `planner` bench
//! experiment replays the naive-Bayes attack with sharing enabled to
//! confirm this.

use crate::cache::CacheKey;
use crate::scheduler::{PlannedQuery, SubmissionTag};
use crate::session::{FormulatedCycle, ServiceError, SessionManager};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use toppriv_core::{substitute_in_cycle_boosts, CycleResult, PrivacyMetrics};
use toppriv_obs::recover_lock;
use tsearch_text::TermId;

/// Maximum tenants sharing one queue entry (bounds fan-out work per
/// submission and keeps any single entry from becoming a hot spot).
const MAX_SUBSCRIBERS: usize = 8;
/// Maximum live offers in the match index (bounds planner memory).
const MAX_OFFERS: usize = 4096;
/// Per-cycle multiplicative decay of the topic-importance index.
const TOPIC_DECAY: f64 = 0.98;
/// Slack for the certification comparisons (floating-point headroom,
/// not a privacy relaxation).
const EXPOSURE_TOLERANCE: f64 = 1e-9;

/// One still-queued submission another tenant may reuse or coalesce onto.
struct Offer {
    /// Index of the backing entry in `PlannerState::queue`.
    queue_index: usize,
    session: String,
    /// The donor cycle's certified intention (substitution requires
    /// disjointness with the acceptor's).
    intention: Vec<usize>,
    /// The donor member's topic posterior (what substitution debits).
    posterior: Vec<f64>,
    tokens: Vec<TermId>,
    k: usize,
}

/// Mutable planner state, all behind one mutex: the pending queue, the
/// match index over it, and the decayed topic-importance weights.
#[derive(Default)]
struct PlannerState {
    /// Manager model epoch the offers were built against; a model swap
    /// invalidates all held posteriors, so the index resets.
    model_epoch: u64,
    /// Planned-but-not-yet-drained submissions (some carry subscribers).
    queue: Vec<PlannedQuery>,
    offers: Vec<Offer>,
    /// First offer per normalized submission key.
    by_key: HashMap<CacheKey, usize>,
    /// Offers per dominant posterior topic.
    by_topic: HashMap<usize, Vec<usize>>,
    /// Time-decayed importance of each topic over recent fleet traffic.
    topic_weight: Vec<f64>,
}

/// The cross-session ghost planner. See the module docs for the design;
/// see [`GhostPlanner::plan_cycle`] for the per-cycle pipeline.
pub struct GhostPlanner {
    manager: Arc<SessionManager>,
    state: Mutex<PlannerState>,
}

impl GhostPlanner {
    /// A planner over `manager`.
    pub fn new(manager: Arc<SessionManager>) -> Self {
        GhostPlanner {
            manager,
            state: Mutex::new(PlannerState::default()),
        }
    }

    /// Plans one cycle through the cross-session pipeline: formulate →
    /// rewrite ghost members against other tenants' queued submissions →
    /// commit (trace accounting, pacing, audit) → coalesce
    /// identical submissions into shared queue entries. Returns the
    /// cycle's ground-truth report (post-rewrite); the planned
    /// submissions accumulate in the planner queue until
    /// [`GhostPlanner::take_queue`].
    pub fn plan_cycle(
        &self,
        id: &str,
        tokens: &[TermId],
        k: usize,
    ) -> Result<CycleResult, ServiceError> {
        let mut fc = self.manager.formulate_cycle(id, tokens, k)?;
        let metrics = self.manager.metrics_registry().clone();
        // One lock for the whole rewrite+commit+coalesce pipeline: the
        // match index must not move under us between choosing a donor
        // and tagging its queue entry. Lock order is planner → session
        // table → session (commit_cycle); `take_queue` takes only the
        // planner lock, so the order is acyclic.
        let mut state = recover_lock(&self.state);
        let epoch = self.manager.model_epoch();
        if state.model_epoch != epoch {
            // Posteriors in the index were inferred under an older model;
            // drop the match index (queued entries stay — they are valid
            // submissions regardless) and restart topic accounting.
            state.offers.clear();
            state.by_key.clear();
            state.by_topic.clear();
            state.topic_weight.clear();
            state.model_epoch = epoch;
        }
        Self::update_topic_index(&mut state, &fc);
        for _ in 0..Self::substitute_members(&mut state, &mut fc) {
            metrics.record_planner_reuse();
        }
        // Posteriors keyed by submission identity, captured before commit
        // consumes `fc` (the pacer shuffles member order, so plan entries
        // are re-matched to members by token bag, not by index).
        let mut member_posteriors: HashMap<CacheKey, Vec<f64>> = HashMap::new();
        for (q, p) in fc.report.cycle.iter().zip(&fc.posteriors) {
            member_posteriors
                .entry(CacheKey::new(&q.tokens, fc.k))
                .or_insert_with(|| p.clone());
        }
        let intention = fc.report.intention.clone();
        let (report, plan) = self.manager.commit_cycle(fc)?;
        for planned in plan {
            let key = CacheKey::new(&planned.scheduled.tokens, planned.k);
            if let Some(&oi) = state.by_key.get(&key) {
                let donor_queue = state.offers[oi].queue_index;
                let donor_session = state.offers[oi].session.clone();
                let entry = &mut state.queue[donor_queue];
                if donor_session != planned.session && entry.fanout() < MAX_SUBSCRIBERS {
                    // Coalesce: the donor's entry is submitted once; this
                    // tenant subscribes to its outcome.
                    if entry.subscribers.is_empty() {
                        entry.subscribers.push(SubmissionTag {
                            session: entry.session.clone(),
                            cycle_id: entry.scheduled.cycle_id,
                            is_genuine: entry.scheduled.is_genuine,
                        });
                    }
                    entry.subscribers.push(SubmissionTag {
                        session: planned.session.clone(),
                        cycle_id: planned.scheduled.cycle_id,
                        is_genuine: planned.scheduled.is_genuine,
                    });
                    metrics.record_planner_coalesced();
                    continue;
                }
            }
            let queue_index = state.queue.len();
            let (session, entry_k) = (planned.session.clone(), planned.k);
            let entry_tokens = planned.scheduled.tokens.clone();
            state.queue.push(planned);
            // Register the new entry as an offer for later cycles. When
            // the key already has an offer (its entry was full, or owned
            // by this same session), re-point it at the fresh entry so
            // the next group of tenants coalesces here instead of each
            // queueing solo — sharing stays open past `MAX_SUBSCRIBERS`.
            if let Some(posterior) = member_posteriors.get(&key) {
                if let Some(&oi) = state.by_key.get(&key) {
                    state.offers[oi].queue_index = queue_index;
                    state.offers[oi].session = session;
                    state.offers[oi].intention = intention.clone();
                } else if state.offers.len() < MAX_OFFERS {
                    if let Some(topic) = argmax(posterior) {
                        let oi = state.offers.len();
                        state.offers.push(Offer {
                            queue_index,
                            session,
                            intention: intention.clone(),
                            posterior: posterior.clone(),
                            tokens: entry_tokens,
                            k: entry_k,
                        });
                        state.by_key.insert(key, oi);
                        state.by_topic.entry(topic).or_default().push(oi);
                    }
                }
            }
        }
        Ok(report)
    }

    /// Drains the planner queue for the [`crate::CycleScheduler`]: the
    /// match index is cleared (its offers point into the drained queue),
    /// the topic-importance weights persist, and the returned
    /// submissions are in global time order.
    pub fn take_queue(&self) -> Vec<PlannedQuery> {
        let mut state = recover_lock(&self.state);
        state.offers.clear();
        state.by_key.clear();
        state.by_topic.clear();
        let mut queue = std::mem::take(&mut state.queue);
        queue.sort_by(|a, b| {
            a.scheduled
                .time_secs
                .partial_cmp(&b.scheduled.time_secs)
                .expect("submission times are finite")
        });
        queue
    }

    /// Decays the topic index and credits each member's dominant topic.
    fn update_topic_index(state: &mut PlannerState, fc: &FormulatedCycle) {
        let num_topics = fc.posteriors.first().map_or(0, Vec::len);
        if state.topic_weight.len() != num_topics {
            state.topic_weight = vec![0.0; num_topics];
        }
        for w in &mut state.topic_weight {
            *w *= TOPIC_DECAY;
        }
        for posterior in &fc.posteriors {
            if let Some(topic) = argmax(posterior) {
                state.topic_weight[topic] += 1.0;
            }
        }
    }

    /// Rewrites ghost members of `fc` in place with donors from the
    /// match index, keeping the cycle certified. Returns how many
    /// members were substituted.
    fn substitute_members(state: &mut PlannerState, fc: &mut FormulatedCycle) -> usize {
        if state.offers.is_empty() || fc.report.cycle_boosts.is_empty() {
            return 0;
        }
        // No duplicate submissions within one cycle: a member may not be
        // rewritten onto a token bag the cycle already contains.
        let mut used_keys: HashSet<CacheKey> = fc
            .report
            .cycle
            .iter()
            .map(|q| CacheKey::new(&q.tokens, fc.k))
            .collect();
        // Hot masking topics first: members masking what the fleet is
        // already submitting are the likeliest (and cheapest) matches.
        let mut candidates: Vec<(usize, usize)> = fc
            .report
            .cycle
            .iter()
            .enumerate()
            .filter(|(i, q)| *i != fc.report.genuine_index && !q.is_genuine)
            .filter_map(|(i, q)| q.masking_topic.map(|t| (i, t)))
            .collect();
        candidates.sort_by(|a, b| {
            let wa = state.topic_weight.get(a.1).copied().unwrap_or(0.0);
            let wb = state.topic_weight.get(b.1).copied().unwrap_or(0.0);
            wb.partial_cmp(&wa).expect("weights are finite")
        });
        let mut reused = 0;
        for (i, topic) in candidates {
            let Some(offer_ids) = state.by_topic.get(&topic) else {
                continue;
            };
            let mut chosen: Option<usize> = None;
            for &oi in offer_ids {
                let offer = &state.offers[oi];
                if offer.session == fc.session
                    || offer.k != fc.k
                    || state.queue[offer.queue_index].fanout() >= MAX_SUBSCRIBERS
                {
                    continue;
                }
                // Disjoint intentions: the donor must not be covering a
                // topic this session protects, nor the reverse.
                if offer
                    .intention
                    .iter()
                    .any(|t| fc.report.intention.contains(t))
                {
                    continue;
                }
                let key = CacheKey::new(&offer.tokens, offer.k);
                if used_keys.contains(&key) {
                    continue;
                }
                // Exact O(K) re-certification of the rewritten cycle.
                let new_boosts = substitute_in_cycle_boosts(
                    &fc.report.cycle_boosts,
                    &fc.posteriors[i],
                    &offer.posterior,
                    fc.report.cycle_len(),
                );
                let mut m = PrivacyMetrics::from_boosts(&new_boosts, &fc.report.intention);
                m.cycle_len = fc.report.metrics.cycle_len;
                m.generation_secs = fc.report.metrics.generation_secs;
                let satisfied = fc
                    .requirement
                    .is_satisfied(&new_boosts, &fc.report.intention);
                // Strictly conservative acceptance: the intention must
                // stay out-boosted by a decoy topic (not merely below
                // ε2), exposure must not rise, and a certified cycle
                // must stay certified. A rejected donor just means the
                // member keeps its generated decoy.
                if m.exposure > m.mask_level + EXPOSURE_TOLERANCE
                    || m.exposure > fc.report.metrics.exposure + EXPOSURE_TOLERANCE
                    || (fc.report.satisfied && !satisfied)
                {
                    continue;
                }
                // Accept: rewrite the member as the donor's submission.
                fc.report.cycle[i].tokens = offer.tokens.clone();
                fc.report.cycle[i].masking_topic = argmax(&offer.posterior);
                fc.posteriors[i] = offer.posterior.clone();
                fc.report.cycle_boosts = new_boosts;
                fc.report.metrics = m;
                fc.report.satisfied = satisfied;
                used_keys.insert(key);
                chosen = Some(oi);
                break;
            }
            if chosen.is_some() {
                reused += 1;
            }
        }
        reused
    }
}

/// Index of the largest value, `None` for an empty slice.
fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        if best.is_none_or(|(_, bv)| v > bv) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::CycleScheduler;
    use std::collections::HashMap;
    use tsearch_corpus::{generate_workload, CorpusConfig, SyntheticCorpus, WorkloadConfig};
    use tsearch_lda::{LdaConfig, LdaTrainer};
    use tsearch_search::{ScoringModel, SearchEngine};
    use tsearch_text::Analyzer;

    struct Stack {
        corpus: SyntheticCorpus,
        engine: Arc<SearchEngine>,
        model: Arc<tsearch_lda::LdaModel>,
    }

    fn stack() -> Stack {
        let corpus = SyntheticCorpus::generate(CorpusConfig {
            num_docs: 240,
            num_topics: 8,
            terms_per_topic: 50,
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
                iterations: 20,
                ..LdaConfig::with_topics(8)
            },
        ));
        Stack {
            corpus,
            engine,
            model,
        }
    }

    fn manager(stack: &Stack) -> Arc<SessionManager> {
        Arc::new(
            SessionManager::new(stack.engine.clone(), stack.model.clone())
                .with_cache(4096)
                .with_fleet_seed(0xF1EE7),
        )
    }

    #[test]
    fn formulated_posteriors_are_those_of_the_submitted_members() {
        // One layer above `GhostGenerator`: what a session hands the
        // planner, the journal and the auditor is what the certificate was
        // computed from.
        use toppriv_core::BeliefEngine;
        let stack = stack();
        let manager = manager(&stack);
        let belief = BeliefEngine::new(stack.model.clone());
        let queries = generate_workload(
            &stack.corpus,
            &WorkloadConfig {
                num_queries: 40,
                ..WorkloadConfig::default()
            },
        );
        manager.open_session("per-cycle").unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let mut members = 0;
        for q in &queries {
            let fc = manager.formulate_cycle("per-cycle", &q.tokens, 10).unwrap();
            assert_eq!(fc.posteriors.len(), fc.report.cycle_len());
            for (member, posterior) in fc.report.cycle.iter().zip(&fc.posteriors) {
                assert_eq!(bits(posterior), bits(&belief.posterior(&member.tokens)));
            }
            // Certified alone, summed in generation order: the shuffle
            // reorders the sum, nothing else.
            let boosts = belief.cycle_boost(&fc.posteriors);
            for (reported, recomputed) in fc.report.cycle_boosts.iter().zip(&boosts) {
                assert!((reported - recomputed).abs() < 1e-12);
            }
            assert_eq!(
                fc.report.satisfied,
                fc.requirement
                    .is_satisfied(&fc.report.cycle_boosts, &fc.report.intention)
            );
            members += fc.report.cycle_len();
            manager.commit_cycle(fc).unwrap();
        }
        assert!(members > queries.len(), "cycles carried ghosts");
    }

    #[test]
    fn identical_queries_coalesce_across_tenants() {
        let stack = stack();
        let manager = manager(&stack);
        let planner = GhostPlanner::new(manager.clone());
        let query = generate_workload(
            &stack.corpus,
            &WorkloadConfig {
                num_queries: 1,
                ..WorkloadConfig::default()
            },
        )
        .remove(0);
        for s in 0..4 {
            manager.open_session(&format!("t{s}")).unwrap();
        }
        let mut members = 0usize;
        for s in 0..4 {
            let report = planner
                .plan_cycle(&format!("t{s}"), &query.tokens, 10)
                .unwrap();
            members += report.cycle_len();
        }
        let queue = planner.take_queue();
        let fanout: usize = queue.iter().map(|p| p.fanout()).sum();
        // Ghost generation is content-seeded under the shared fleet
        // secret, so all four tenants formulated the identical cycle:
        // every submission beyond the first tenant's coalesces.
        assert_eq!(fanout, members, "every member is represented by a tag");
        assert!(
            queue.len() < members,
            "identical cycles must share queue entries ({} vs {members})",
            queue.len()
        );
        let m = manager.metrics_registry().snapshot();
        assert!(m.planner_coalesced > 0);
        assert!(
            queue
                .windows(2)
                .all(|w| w[0].scheduled.time_secs <= w[1].scheduled.time_secs),
            "take_queue returns global time order"
        );
        assert!(
            recover_lock(&planner.state).queue.is_empty(),
            "take_queue drains the queue"
        );
    }

    #[test]
    fn coalesced_drain_matches_unplanned_genuine_hits() {
        let stack = stack();
        let queries = generate_workload(
            &stack.corpus,
            &WorkloadConfig {
                num_queries: 6,
                ..WorkloadConfig::default()
            },
        );
        let baseline = manager(&stack);
        let planned = manager(&stack);
        const SESSIONS: usize = 4;
        for m in [&baseline, &planned] {
            for s in 0..SESSIONS {
                m.open_session(&format!("t{s}")).unwrap();
            }
        }
        // Baseline: every tenant plans alone.
        let mut plans = Vec::new();
        for s in 0..SESSIONS {
            for q in 0..3 {
                plans.push(
                    baseline
                        .plan_cycle(
                            &format!("t{s}"),
                            &queries[(s + q) % queries.len()].tokens,
                            10,
                        )
                        .unwrap(),
                );
            }
        }
        let base_outcomes =
            CycleScheduler::for_manager(&baseline, 4).drain(CycleScheduler::merge(plans));
        // Planned: same workload through the planner.
        let planner = GhostPlanner::new(planned.clone());
        for s in 0..SESSIONS {
            for q in 0..3 {
                planner
                    .plan_cycle(
                        &format!("t{s}"),
                        &queries[(s + q) % queries.len()].tokens,
                        10,
                    )
                    .unwrap();
            }
        }
        let plan_outcomes = CycleScheduler::for_manager(&planned, 4).drain(planner.take_queue());
        // Same fleet seed → same genuine members → identical hits per
        // (session, cycle): sharing decoys must not change what any
        // tenant's genuine queries return.
        let collect = |outcomes: &[crate::SubmitOutcome]| {
            let mut hits: HashMap<(String, usize), Vec<(u32, u64)>> = HashMap::new();
            for o in outcomes {
                if o.is_genuine {
                    hits.insert(
                        (o.session.clone(), o.cycle_id),
                        o.hits
                            .iter()
                            .map(|h| (h.doc_id, h.score.to_bits()))
                            .collect(),
                    );
                }
            }
            hits
        };
        assert_eq!(collect(&base_outcomes), collect(&plan_outcomes));
        // And the engine saw strictly fewer submissions with sharing on.
        let base_subs = baseline.metrics_registry().snapshot().engine_submits;
        let plan_subs = planned.metrics_registry().snapshot().engine_submits;
        assert!(
            plan_subs < base_subs,
            "planner must cut engine submissions ({plan_subs} vs {base_subs})"
        );
    }

    #[test]
    fn substitutions_keep_cycles_certified() {
        let stack = stack();
        let manager = manager(&stack);
        let planner = GhostPlanner::new(manager.clone());
        let queries = generate_workload(
            &stack.corpus,
            &WorkloadConfig {
                num_queries: 8,
                ..WorkloadConfig::default()
            },
        );
        const SESSIONS: usize = 8;
        for s in 0..SESSIONS {
            manager.open_session(&format!("t{s}")).unwrap();
        }
        for round in 0..3 {
            for s in 0..SESSIONS {
                let q = &queries[(s + round) % queries.len()];
                let report = planner.plan_cycle(&format!("t{s}"), &q.tokens, 10).unwrap();
                // The fleet invariant must hold on every committed
                // (possibly rewritten) cycle.
                assert!(
                    report.metrics.exposure <= report.metrics.mask_level.max(0.01) + 1e-9,
                    "rewritten cycle violates masking: exposure {} mask {}",
                    report.metrics.exposure,
                    report.metrics.mask_level
                );
            }
        }
        assert!(!recover_lock(&planner.state).topic_weight.is_empty());
        let outcomes = CycleScheduler::for_manager(&manager, 4).drain(planner.take_queue());
        assert!(!outcomes.is_empty());
        // Per-tenant accounting saw every member of every cycle.
        let snapshot = manager.metrics();
        for m in &snapshot.sessions {
            assert_eq!(m.cycles, 3);
        }
    }
}
