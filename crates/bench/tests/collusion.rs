//! Adversary collusion at scale. A churn storm of ≥ 64 tenants runs
//! through the fleet simulation's steps, each checked against the
//! reference model: once with every cycle planned plainly, once through
//! the ghost planner (ghost reuse and coalesced shared submissions). Then
//! every shard of the term-sharded tier colludes: they merge their query
//! logs and attack the cycles with a naive-Bayes classifier trained on the
//! ground-truth document taxonomy. With or without sharing, the attack
//! stays within the paper's `(ε1, ε2)` story.

#[allow(dead_code)]
mod sim;

use sim::{stack, Sim, Step};
use toppriv_adversary::{merge_shard_logs, run_classifier_attack, NaiveBayes};
use toppriv_core::{CycleResult, PrivacyRequirement};
use tsearch_corpus::{generate_workload, GeneratedDoc, WorkloadConfig};

/// Three waves, each opening 24 tenants, planning one cycle for every
/// open tenant, draining, and closing the older half of the open tenants.
fn storm(sim: &mut Sim, through_planner: bool) {
    for wave in 0..3 {
        (24 * wave..24 * wave + 24).for_each(|t| sim.step(Step::Open(t)));
        let open = sim.open_tenants();
        for (s, &t) in open.iter().enumerate() {
            sim.step(Step::Plan(t, wave * 7 + s * 3, through_planner));
        }
        sim.step(Step::Drain(2));
        for &t in &open[..open.len() / 2] {
            sim.step(Step::Close(t));
        }
    }
}

/// The storm's privacy facts, then the colluding shards' attack on it.
fn shards_collude_within_epsilon_bounds(sim: &Sim) {
    let eps = PrivacyRequirement::paper_default();
    let joined = sim.closed.len() + sim.open_tenants().len();
    assert!(joined >= 64, "the storm opened {joined} sessions");
    let satisfied = |(r, _): &&(CycleResult, usize)| r.satisfied && !r.intention.is_empty();
    let exposures: Vec<f64> = sim
        .planned
        .iter()
        .filter(satisfied)
        .map(|(r, _)| r.metrics.exposure)
        .collect();
    assert!(!exposures.is_empty(), "satisfied cycles occur in the storm");
    assert!(exposures.iter().all(|&e| e <= eps.eps2 + 1e-9));
    for m in &sim.closed {
        let consistent = m.mean_exposure <= m.mean_mask_level + 1e-9;
        assert!(m.cycles > 0 && consistent, "{m:?}");
    }
    // The colluding shards reassemble the whole trace: what the cache
    // served never reached them, everything else did.
    let tier = sim.manager.tier();
    let merged = merge_shard_logs(&tier.as_sharded().expect("sharded").shard_logs());
    let cache_hits = sim.manager.metrics().global.cache_hits as usize;
    assert!(!merged.is_empty(), "colluding shards saw the trace");
    assert_eq!(merged.len() + cache_hits, sim.drained);

    // The strongest classifier the enterprise can field: trained on the
    // ground-truth dominant topic of every document it hosts.
    let corpus = &stack().corpus;
    fn label(d: &GeneratedDoc) -> (&[u32], usize) {
        let weight = |a: &&(usize, f64), b: &&(usize, f64)| a.1.total_cmp(&b.1);
        (
            &d.tokens,
            d.mixture.iter().max_by(weight).expect("mixture").0,
        )
    }
    let labeled: Vec<(&[u32], usize)> = corpus.docs.iter().map(label).collect();
    let nb = NaiveBayes::train(&labeled, corpus.num_topics(), corpus.vocab.len(), 1.0);
    let (cycles, truths): (Vec<_>, Vec<_>) = sim.planned.iter().cloned().unzip();
    let r = run_classifier_attack(&nb, &cycles, &truths);
    assert!(r.cycles >= 64, "{r:?}");
    // The oracle is strong, so the attack is no straw man.
    assert!(r.unprotected_recovery > 2.0 * r.topic_chance, "{r:?}");
    // ε1: the genuine query hides among the (shared) decoys.
    let chance = r.genuine_chance + eps.eps1;
    assert!(r.genuine_identification <= chance, "{r:?}");
    // ε2: the pooled cycle does not leak the topic as the raw query does.
    assert!(r.cycle_recovery < r.unprotected_recovery, "{r:?}");
}

#[test]
fn colluding_shards_stay_within_epsilon_bounds_at_scale() {
    let mut sim = Sim::new(0xC0111D0, stack().pools[0].clone(), 0.0);
    storm(&mut sim, false);
    shards_collude_within_epsilon_bounds(&sim);
}

#[test]
fn planner_sharing_preserves_per_session_privacy_at_scale() {
    // A modest pool shared by many tenants: overlap for the planner to
    // exploit, and the hard case for privacy (most cross-tenant
    // correlation in the merged logs).
    let workload = WorkloadConfig {
        num_queries: 24,
        ..Default::default()
    };
    let queries = generate_workload(&stack().corpus, &workload);
    let mut sim = Sim::new(0x9105751, queries, 0.0);
    storm(&mut sim, true);
    // The planner shared work: the engine saw fewer submissions than
    // tenants were debited for, and every subscriber was audited.
    let global = sim.manager.metrics().global;
    assert!(global.planner_coalesced > 0, "{global:?}");
    assert!(global.engine_submits < global.submitted, "{global:?}");
    let health = sim.manager.auditor().expect("audit plane").health();
    assert!(health.healthy && health.cycles_audited > 0, "{health:?}");
    shards_collude_within_epsilon_bounds(&sim);
}
